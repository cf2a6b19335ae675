// Command itree computes Incentive Tree rewards for a referral tree.
//
// It reads a tree in the nested JSON participant format (see
// internal/tree) from a file or stdin, evaluates the selected mechanism
// and prints a per-participant settlement table.
//
// Usage:
//
//	itree -mechanism tdrm -phi 0.5 -fair 0.05 [-dot] [-render] [tree.json]
//	itree convert -kind snapshot|journal -to json|binary [-o out] [in]
//
// The convert subcommand translates checkpoint snapshots and journals
// between the binary on-disk format and the JSON debug/export format,
// and migrates data written by releases that kept JSON on disk (see
// cmd/itree/convert.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "itree:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "convert" {
		return runConvert(args[1:], stdin, stdout)
	}
	fs := flag.NewFlagSet("itree", flag.ContinueOnError)
	mech := fs.String("mechanism", "tdrm",
		"mechanism: "+strings.Join(experiments.MechanismNames(), ", "))
	phi := fs.Float64("phi", 0.5, "budget fraction Phi (0 < Phi <= 1)")
	fair := fs.Float64("fair", 0.05, "fairness floor phi (phi-RPC)")
	dot := fs.Bool("dot", false, "print the referral tree in Graphviz dot and exit")
	render := fs.Bool("render", false, "print the referral tree as ASCII before the table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	data, err := io.ReadAll(in)
	if err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	var t tree.Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("parse tree: %w", err)
	}

	if *dot {
		fmt.Fprint(stdout, t.DOT())
		return nil
	}
	if *render {
		fmt.Fprint(stdout, t.Render())
	}

	m, err := experiments.ByName(core.Params{Phi: *phi, FairShare: *fair}, *mech)
	if err != nil {
		return err
	}
	r, err := m.Rewards(&t)
	if err != nil {
		return err
	}
	if err := core.Audit(m, &t, r); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "mechanism: %s\n", m.Name())
	fmt.Fprintf(stdout, "C(T) = %.6g, R(T) = %.6g, budget = %.6g\n\n",
		t.Total(), r.Total(), *phi*t.Total())
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "participant\tC(u)\tR(u)\tprofit\trecruits")
	for _, u := range t.Nodes() {
		fmt.Fprintf(w, "%s\t%.6g\t%.6g\t%.6g\t%d\n",
			t.Label(u), t.Contribution(u), r.Of(u), core.Profit(&t, r, u), t.NumChildren(u))
	}
	return w.Flush()
}
