package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"incentivetree/internal/journal"
)

// runConvert implements `itree convert`: translate snapshots and
// journals between the binary on-disk format and the JSON debug/export
// format. The input representation is auto-detected, so converting a
// file to the format it is already in is a clean (canonicalizing)
// no-op.
//
//	itree convert -kind snapshot -to json  snapshot.bin  > snapshot.json
//	itree convert -kind journal  -to binary journal.log -o journal.bin
//
// It is also the migrator for data written by releases that kept JSON
// on disk, which the daemon refuses to recover: `-to binary` turns a
// snapshot.json into a snapshot.bin, and a JSON-lines journal — or one
// that switched from JSON lines to binary records mid-file — into a
// binary journal.
//
// Journals convert record by record; a torn tail or mid-log corruption
// aborts with an error rather than silently emitting a shortened log —
// repair (or recover) the journal first.
func runConvert(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("itree convert", flag.ContinueOnError)
	kind := fs.String("kind", "", "what the input is: snapshot or journal (required)")
	to := fs.String("to", "", "target format: json or binary (required)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag package stops at the first positional argument, but the
	// documented invocations put -o after the input file; keep parsing
	// flags that follow it so those are honored, not silently dropped.
	input := ""
	for fs.NArg() > 0 {
		if input != "" {
			return fmt.Errorf("unexpected argument %q (give one input file; flags may come before or after it)", fs.Arg(0))
		}
		input = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	mode, err := journal.ParseMode(*to)
	if err != nil {
		return fmt.Errorf("-to: %w", err)
	}

	in := stdin
	if input != "" {
		f, err := os.Open(input)
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

	var converted []byte
	switch *kind {
	case "snapshot":
		converted, err = convertSnapshot(data, mode)
	case "journal":
		converted, err = convertJournal(data, mode)
	default:
		return fmt.Errorf("-kind must be snapshot or journal (got %q)", *kind)
	}
	if err != nil {
		return err
	}

	if *out == "" {
		_, err := stdout.Write(converted)
		return err
	}
	return os.WriteFile(*out, converted, 0o644)
}

func convertSnapshot(data []byte, mode journal.Mode) ([]byte, error) {
	snap := new(journal.Snapshot)
	if journal.IsBinarySnapshot(data) {
		var err error
		if snap, err = journal.DecodeSnapshot(data); err != nil {
			return nil, err
		}
	} else if err := json.Unmarshal(data, snap); err != nil {
		return nil, fmt.Errorf("decode JSON snapshot: %w", err)
	}
	if mode == journal.ModeBinary {
		return journal.EncodeSnapshot(snap)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func convertJournal(data []byte, mode journal.Mode) ([]byte, error) {
	events, err := readJournal(data)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	enc := journal.NewEncoderMode(&out, mode)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// readJournal decodes a journal in any format a release has written:
// binary records, JSON lines, or a log that switched from JSON lines to
// binary records part way. Sequence numbers must be contiguous
// throughout. Unlike recovery it is strict: a torn tail is an error,
// not a repair.
func readJournal(data []byte) ([]journal.Event, error) {
	var events []journal.Event
	next := func() uint64 {
		if len(events) == 0 {
			return 0
		}
		return events[len(events)-1].Seq + 1
	}
	for off := 0; off < len(data); {
		if data[off] != '{' {
			// A run of binary records (and blank lines), up to the next
			// JSON line if the log switches format again.
			d := journal.NewDecoder(bytes.NewReader(data[off:]))
			d.ExpectSeq(next())
			for {
				e, err := d.Next()
				if err == io.EOF {
					return events, nil
				}
				if errors.Is(err, journal.ErrJSONJournal) {
					break
				}
				if errors.Is(err, journal.ErrTornTail) {
					return nil, fmt.Errorf("journal has a torn tail after %d records (%v); recover it before converting", len(events), err)
				}
				if err != nil {
					return nil, fmt.Errorf("journal record %d: %w", len(events)+1, err)
				}
				events = append(events, e)
			}
			off += int(d.Offset())
			continue
		}
		line := data[off:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl+1]
		}
		off += len(line)
		var e journal.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("journal record %d: malformed JSON line (a torn tail? recover it before converting): %w", len(events)+1, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("journal record %d: %w", len(events)+1, err)
		}
		if want := next(); want != 0 && e.Seq != want {
			return nil, fmt.Errorf("journal record %d: sequence gap: %d after %d", len(events)+1, e.Seq, want-1)
		}
		events = append(events, e)
	}
	return events, nil
}
