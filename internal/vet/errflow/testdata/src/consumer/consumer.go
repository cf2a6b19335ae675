// Fixture: every loss mode errflow reports, next to the shapes that
// legitimately consume the error.
package consumer

import (
	"fmt"

	"journal"
)

// Blank drops the append error on the floor.
func Blank(jw *journal.Writer, e journal.Event) journal.Event {
	ev, _ := jw.Append(e) // want `error from journal.Append assigned to _`
	return ev
}

// Discarded ignores the results entirely.
func Discarded(jw *journal.Writer, e journal.Event) {
	jw.Append(e) // want `return values of journal.Append discarded`
}

// Overwritten clobbers the sync error with the apply error before
// anyone reads it.
func Overwritten(jw *journal.Writer, l *journal.Ledger, e journal.Event) error {
	err := jw.Sync()
	err = l.ApplySettle(e) // want `error from journal.Sync overwritten before it is read`
	return err
}

// BranchLost reads the error only on the logging branch: the happy
// path returns without ever looking at it.
func BranchLost(jw *journal.Writer, e journal.Event, verbose bool) journal.Event {
	ev, err := jw.Append(e) // want `error from journal.Append is lost on a path out of the function`
	if verbose {
		fmt.Println(err)
	}
	return ev
}

// Shadowed loses the outer error: the inner := declares a new err and
// the outer one reaches the return unread.
func Shadowed(jw *journal.Writer, e journal.Event) error {
	_, err := jw.Append(e) // want `error from journal.Append is lost on a path out of the function`
	if e.Name != "" {
		err := jw.Sync()
		return err
	}
	_ = err
	return nil
}

// Returned propagates directly: no finding.
func Returned(jw *journal.Writer, e journal.Event) (journal.Event, error) {
	return jw.Append(e)
}

// Checked reads the error on every path: no finding.
func Checked(jw *journal.Writer, e journal.Event) (journal.Event, error) {
	ev, err := jw.Append(e)
	if err != nil {
		return journal.Event{}, fmt.Errorf("append: %w", err)
	}
	if err := jw.Sync(); err != nil {
		return journal.Event{}, err
	}
	return ev, nil
}

// Wrapped reads the error by rewrapping it in place: a read, then the
// rewrapped value is returned. No finding.
func Wrapped(l *journal.Ledger, e journal.Event) error {
	err := l.ApplyClaim(e)
	if err != nil {
		err = fmt.Errorf("claim: %w", err)
	}
	return err
}

// Stored keeps the error in a field for later inspection: no finding.
type sink struct {
	lastErr error
}

func (s *sink) Stored(jw *journal.Writer, e journal.Event) {
	_, s.lastErr = jw.Append(e)
}

// Looped reads the error before the back edge on every iteration: no
// finding.
func Looped(jw *journal.Writer, events []journal.Event) error {
	for _, e := range events {
		if _, err := jw.Append(e); err != nil {
			return err
		}
	}
	return jw.Sync()
}

// InClosure is tracked inside the literal's own CFG.
func InClosure(jw *journal.Writer, e journal.Event) func() {
	return func() {
		jw.Append(e) // want `return values of journal.Append discarded`
	}
}

// Waived shows the suppression path: the annotation absorbs what
// would otherwise be a finding.
func Waived(jw *journal.Writer, e journal.Event) journal.Event {
	//itreevet:ignore errflow fixture demonstrates a reviewed waiver
	ev, _ := jw.Append(e)
	return ev
}

// ApplyBlank drops a state apply's error: the caller would journal an
// event the state refused.
func ApplyBlank(st *journal.State, e journal.Event) journal.Undo {
	u, _ := st.Apply(e) // want `error from journal.State.Apply assigned to _`
	return u
}

// ApplyDiscarded ignores the apply's results entirely.
func ApplyDiscarded(st *journal.State, e journal.Event) {
	st.Apply(e) // want `return values of journal.State.Apply discarded`
}

// ApplyChecked skips the refused event: no finding.
func ApplyChecked(st *journal.State, events []journal.Event) []journal.Undo {
	var undos []journal.Undo
	for _, e := range events {
		u, err := st.Apply(e)
		if err != nil {
			continue
		}
		undos = append(undos, u)
	}
	return undos
}
