// Package journal is a stub with the same package name, type names,
// and method shapes as the real journal package — the analyzer
// matches on names, so fixtures exercise it without importing the
// module.
package journal

type Event struct {
	Name string
	Seq  uint64
}

type Writer struct {
	seq uint64
}

func (w *Writer) Append(e Event) (Event, error) {
	w.seq++
	e.Seq = w.seq
	return e, nil
}

func (w *Writer) AppendBatch(events []Event) ([]Event, error) {
	for i := range events {
		w.seq++
		events[i].Seq = w.seq
	}
	return events, nil
}

func (w *Writer) Sync() error { return nil }

type Ledger struct {
	applied uint64
}

func (l *Ledger) ApplySettle(e Event) error {
	l.applied++
	return nil
}

func (l *Ledger) ApplyClaim(e Event) error {
	l.applied++
	return nil
}

type Undo struct {
	seq uint64
}

type State struct {
	LastSeq uint64
}

func (st *State) Apply(e Event) (Undo, error) {
	u := Undo{seq: st.LastSeq}
	st.LastSeq = e.Seq
	return u, nil
}
