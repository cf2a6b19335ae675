package vet

import (
	"go/ast"
	"go/token"
)

// CFG is the intraprocedural control-flow graph of one function body:
// basic blocks of non-branching nodes connected by successor edges.
// It is the substrate of the dataflow analyzers (errflow's
// must-check-error walk, httpcontract's write-after-header paths) and
// deliberately follows the shape of x/tools' go/cfg while staying
// stdlib-only.
//
// Blocks hold ast.Nodes, not whole statements: composite statements
// contribute only their non-branching parts (an IfStmt contributes
// Init and Cond to the block that evaluates them; its Body and Else
// statements land in successor blocks). Nodes therefore never contain
// nested statement blocks — walkers can ast.Inspect a node without
// double-visiting, as long as they skip *ast.FuncLit (closure bodies
// run on their own schedule and get their own CFG).
type CFG struct {
	// Entry is executed first; Exit represents every way out of the
	// function (returns, panics, falling off the end). Exit holds no
	// nodes and has no successors.
	Entry  *Block
	Exit   *Block
	Blocks []*Block // every block, Entry first, in creation order
}

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// NewCFG builds the control-flow graph of one function body. Function
// literals nested in the body are treated as opaque values: their
// bodies are not woven into this graph (build a separate CFG for
// them).
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{Index: -1}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// loopFrame is one enclosing loop or switch, the target of
// break/continue statements (labeled or not).
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a non-branching node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt weaves one statement into the graph. label names the statement
// when it is the direct child of a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(x.List)

	case *ast.LabeledStmt:
		b.stmt(x.Stmt, x.Label.Name)

	case *ast.IfStmt:
		if x.Init != nil {
			b.stmt(x.Init, "")
		}
		b.add(x.Cond)
		head := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.edge(head, then)
		b.cur = then
		b.stmtList(x.Body.List)
		b.edge(b.cur, join)
		if x.Else != nil {
			els := b.newBlock()
			b.edge(head, els)
			b.cur = els
			b.stmt(x.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if x.Init != nil {
			b.stmt(x.Init, "")
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if x.Cond != nil {
			b.add(x.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		if x.Cond != nil {
			b.edge(head, exit)
		}
		post := head
		if x.Post != nil {
			post = b.newBlock()
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, continueTo: post})
		b.cur = body
		b.stmtList(x.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if x.Post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(x.Post, "")
			b.edge(b.cur, head)
		} else {
			b.edge(b.cur, head)
		}
		if x.Cond == nil {
			// `for { ... }` exits only via break; exit may be unreachable.
			_ = exit
		}
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		// The ranged expression (and the per-iteration key/value binding)
		// evaluates at the head; the statement's Body is woven separately,
		// so only X is recorded.
		b.add(x.X)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, continueTo: head})
		b.cur = body
		b.stmtList(x.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt:
		b.switchStmt(x.Init, x.Tag, x.Body, label)

	case *ast.TypeSwitchStmt:
		// The assign (`v := y.(type)`) evaluates at the head like a tag.
		b.switchStmt(x.Init, x.Assign, x.Body, label)

	case *ast.SelectStmt:
		head := b.cur
		join := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: join})
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			clause := b.newBlock()
			b.edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(x.Body.List) == 0 {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(x)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.add(x)
		switch x.Tok {
		case token.BREAK:
			if t := b.frame(x.Label, false); t != nil {
				b.edge(b.cur, t.breakTo)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
		case token.CONTINUE:
			if t := b.frame(x.Label, true); t != nil && t.continueTo != nil {
				b.edge(b.cur, t.continueTo)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
		case token.GOTO:
			// Rare in this module; conservatively treat as leaving the
			// function so no spurious fallthrough path is created.
			b.edge(b.cur, b.cfg.Exit)
		}
		if x.Tok != token.FALLTHROUGH {
			b.cur = b.newBlock() // unreachable continuation
		}

	case *ast.ExprStmt:
		b.add(x)
		if isPanicCall(x.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = b.newBlock()
		}

	default:
		// Assignments, declarations, sends, defers, go statements,
		// increments: straight-line nodes.
		b.add(s)
	}
}

// switchStmt weaves a (type) switch: init and tag at the head, one
// block per clause, fallthrough chaining, implicit default to join.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, label string) {
	if init != nil {
		b.stmt(init, "")
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: join})
	var clauses []*Block
	hasDefault := false
	for range body.List {
		clauses = append(clauses, b.newBlock())
	}
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := clauses[i]
		b.edge(head, blk)
		b.cur = blk
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(clauses) {
					b.edge(b.cur, clauses[i+1])
					fellThrough = true
				}
				continue
			}
			b.stmt(s, "")
		}
		if !fellThrough {
			b.edge(b.cur, join)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		b.edge(head, join)
	}
	b.cur = join
}

// frame resolves a break/continue target: the labeled frame, or else
// the innermost one the branch can target. A switch or select frame
// takes an unlabeled break but not a continue, which belongs to the
// innermost enclosing loop.
func (b *cfgBuilder) frame(label *ast.Ident, isContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != nil {
			if f.label == label.Name {
				return f
			}
		} else if !isContinue || f.continueTo != nil {
			return f
		}
	}
	return nil
}

// isPanicCall reports whether e is a call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
