package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// Probe: a continue nested in a switch or select inside a for loop
// edges to the loop, never to Exit — unlabeled (the innermost loop) and
// labeled (the named loop, through an inner switch).
func TestReviewProbeContinueInSwitch(t *testing.T) {
	for name, body := range map[string]string{
		"switch": `
	for i := 0; i < 10; i++ {
		switch i {
		case 1:
			continue
		}
	}`,
		"labeled switch": `
outer:
	for i := 0; i < 10; i++ {
		for j := 0; j < i; j++ {
			switch j {
			case 1:
				continue outer
			}
		}
	}`,
		"select": `
	for i := range ch {
		select {
		case <-ch:
			if i > 1 {
				continue
			}
		default:
		}
	}`,
	} {
		t.Run(name, func(t *testing.T) {
			src := "package p\nfunc f(ch chan int) {" + body + "\n}"
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "p.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			fd := file.Decls[0].(*ast.FuncDecl)
			cfg := NewCFG(fd.Body)
			found := false
			for _, b := range cfg.Blocks {
				for _, n := range b.Nodes {
					br, ok := n.(*ast.BranchStmt)
					if !ok || br.Tok != token.CONTINUE {
						continue
					}
					found = true
					for _, s := range b.Succs {
						if s == cfg.Exit {
							t.Errorf("continue block %d has an edge to Exit (should go to the loop head/post)", b.Index)
						}
					}
					if len(b.Succs) == 0 {
						t.Errorf("continue block %d has no successors", b.Index)
					}
				}
			}
			if !found {
				t.Fatal("no continue statement in the CFG")
			}
		})
	}
}
