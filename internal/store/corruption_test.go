package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incentivetree/internal/journal"
)

// corruptionFixture provisions a campaign with a binary journal of a
// few events (no checkpoint, so recovery replays everything), crashes
// the store without Close, and returns the journal path plus the
// pre-crash rewards table.
func corruptionFixture(t *testing.T) (cfg Config, logPath string, preRewards []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg = testConfig(dir)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(Meta{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	c, _ := st.Get("acme")
	sponsor := ""
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("p%d", i)
		if err := c.Server().Join(name, sponsor); err != nil {
			t.Fatal(err)
		}
		if err := c.Server().Contribute(name, 1.5+float64(i)); err != nil {
			t.Fatal(err)
		}
		sponsor = name
	}
	pre := rewardsBytes(t, st.Handler(), "acme")
	// No Close: the journal keeps all 12 events for recovery to chew on.
	return cfg, filepath.Join(dir, "campaigns", "acme", "journal.log"), pre
}

// lastRecordStart returns the byte offset where the final binary
// record of the journal begins (records start with the 0xB1 tag; the
// payload-length byte pins down the frame walk from offset 0).
func lastRecordStart(t *testing.T, data []byte) int {
	t.Helper()
	off, last := 0, -1
	for off < len(data) {
		if data[off] != 0xb1 {
			t.Fatalf("offset %d: not a binary record (byte %#x)", off, data[off])
		}
		last = off
		plen := int(data[off+1]) // test journals have sub-128-byte payloads
		off += 2 + plen + 4
	}
	if off != len(data) || last < 0 {
		t.Fatalf("journal did not parse as whole binary records (%d != %d)", off, len(data))
	}
	return last
}

// TestBinaryJournalCorruptTailRecovers: a bit flip anywhere in the
// final binary record fails its CRC, which feeds the existing
// torn-tail repair — recovery truncates the record away and serves the
// state of the surviving prefix.
func TestBinaryJournalCorruptTailRecovers(t *testing.T) {
	cfg, logPath, _ := corruptionFixture(t)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	tail := lastRecordStart(t, full)

	for _, flip := range []int{tail, tail + 1, tail + 2, (tail + len(full)) / 2, len(full) - 1} {
		data := append([]byte(nil), full...)
		data[flip] ^= 0x20
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(cfg)
		if err != nil {
			t.Fatalf("flip at %d: recovery failed: %v", flip, err)
		}
		c, _ := st.Get("acme")
		if got := c.Server().LastSeq(); got != 11 {
			t.Fatalf("flip at %d: recovered lastSeq = %d, want 11 (final record dropped)", flip, got)
		}
		repaired, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, full[:tail]) {
			t.Fatalf("flip at %d: journal not truncated at the damaged record (len %d, want %d)",
				flip, len(repaired), tail)
		}
		st.Close()
	}
}

// TestBinaryJournalTruncatedTailRecovers: a crash mid-append leaves a
// partial final frame; recovery keeps every complete record and trims
// the fragment.
func TestBinaryJournalTruncatedTailRecovers(t *testing.T) {
	cfg, logPath, _ := corruptionFixture(t)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	tail := lastRecordStart(t, full)
	if err := os.Truncate(logPath, int64(tail+3)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	c, _ := st.Get("acme")
	if got := c.Server().LastSeq(); got != 11 {
		t.Fatalf("recovered lastSeq = %d, want 11", got)
	}
	repaired, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != tail {
		t.Fatalf("journal trimmed to %d bytes, want %d", len(repaired), tail)
	}
	// Appends continue cleanly after the repair.
	if err := c.Server().Join("post-crash", ""); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestBinaryJournalMidLogCorruptionFailsLoudly: damage with valid
// records behind it is not a torn tail — startup must refuse to serve
// rather than silently drop interior events.
func TestBinaryJournalMidLogCorruptionFailsLoudly(t *testing.T) {
	cfg, logPath, _ := corruptionFixture(t)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), full...)
	data[len(full)/3] ^= 0x20
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("mid-log corruption recovered silently; want a hard startup error")
	}
	// The damaged journal must be left untouched for forensics.
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("failed recovery modified the corrupt journal")
	}
}

// appendTornRecord appends the first half of e's binary record to the
// journal at path: what a crash in the middle of an append leaves.
func appendTornRecord(t *testing.T, path string, e journal.Event) {
	t.Helper()
	rec, err := journal.AppendBinaryRecord(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryJournalZeroFilledTailRecovers: a power cut can leave the
// journal's tail zero-filled (the file grew, the data never reached the
// disk). Recovery treats the zeros as a torn tail: it keeps every
// complete record and trims the rest.
func TestBinaryJournalZeroFilledTailRecovers(t *testing.T) {
	cfg, logPath, pre := corruptionFixture(t)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, append(append([]byte(nil), full...), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, cfg)
	if post := rewardsBytes(t, st.Handler(), "acme"); !bytes.Equal(pre, post) {
		t.Fatalf("recovered rewards differ\npre:  %s\npost: %s", pre, post)
	}
	repaired, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, full) {
		t.Fatalf("journal trimmed to %d bytes, want the %d complete ones", len(repaired), len(full))
	}
}

// TestRecoveryRefusesJSONEraFiles: a campaign directory written by a
// release that kept JSON on disk fails recovery with an error naming
// the migrator, and recovery leaves its files byte-identical. A JSON
// journal is never mistaken for a torn tail — truncating it would empty
// a one-record log — and a leftover snapshot.json is never ignored: the
// journal beside it was compacted against it.
func TestRecoveryRefusesJSONEraFiles(t *testing.T) {
	// jsonLog re-encodes the first n events of the binary journal at
	// logPath as JSON lines, the format older releases wrote.
	jsonLog := func(t *testing.T, logPath string, n int) []byte {
		t.Helper()
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		events, err := journal.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		enc := journal.NewEncoderMode(&out, journal.ModeJSON)
		for _, e := range events[:n] {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	for name, doctor := range map[string]func(t *testing.T, logPath string) (path string, data []byte){
		"json journal": func(t *testing.T, logPath string) (string, []byte) {
			return logPath, jsonLog(t, logPath, 12)
		},
		"torn one-record json journal": func(t *testing.T, logPath string) (string, []byte) {
			first := jsonLog(t, logPath, 1)
			return logPath, first[:len(first)/2]
		},
		"leftover snapshot.json": func(t *testing.T, logPath string) (string, []byte) {
			return filepath.Join(filepath.Dir(logPath), "snapshot.json"), []byte(`{"last_seq":0,"tree":{}}`)
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg, logPath, _ := corruptionFixture(t)
			path, data := doctor(t, logPath)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(cfg)
			if err == nil || !strings.Contains(err.Error(), "itree convert") {
				t.Fatalf("err = %v, want a refusal naming itree convert", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("refused recovery modified the file")
			}
		})
	}
}
