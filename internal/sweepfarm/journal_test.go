package sweepfarm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// completeJournal runs a small farm to completion with a journal and
// returns the journal's raw bytes plus its decoded points.
func completeJournal(t *testing.T) ([]byte, []Point) {
	t.Helper()
	spec := testSpec()
	journal := filepath.Join(t.TempDir(), "journal.bin")
	mustRun(t, spec, Options{Workers: 4, Journal: journal})
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	pts, valid, err := ReadJournal(journal)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if int(valid) != len(raw) {
		t.Fatalf("complete journal has %d valid of %d bytes", valid, len(raw))
	}
	if len(pts) != len(spec.Points) {
		t.Fatalf("complete journal holds %d of %d points", len(pts), len(spec.Points))
	}
	return raw, pts
}

// TestJournalRecoveryAllTruncations is the torn-tail recovery property:
// for EVERY truncation length of a complete journal, the reader returns
// exactly the records that lie fully inside the prefix, stops at the
// last record boundary at or before the cut, and never errors. A torn
// tail at any byte is indistinguishable from a crash mid-append, so
// this sweeps the whole crash surface. Every cut goes through the
// byte-slice core; the empty, mid-record and complete cuts also go
// through ReadJournal on disk.
func TestJournalRecoveryAllTruncations(t *testing.T) {
	raw, full := completeJournal(t)

	// boundaries[i] is the byte offset just past record i, recomputed
	// from the canonical per-record encoding.
	var boundaries []int64
	var buf []byte
	for _, p := range full {
		rec, err := marshalPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		buf = appendUvarint(buf, uint64(len(rec)))
		buf = append(buf, rec...)
		boundaries = append(boundaries, int64(len(buf)))
	}
	if !bytes.Equal(buf, raw) {
		t.Fatalf("re-encoded journal differs from the file")
	}

	check := func(cut int, pts []Point, valid int64) {
		t.Helper()
		wantN := 0
		var wantValid int64
		for i, b := range boundaries {
			if int64(cut) >= b {
				wantN = i + 1
				wantValid = b
			}
		}
		if len(pts) != wantN || valid != wantValid {
			t.Fatalf("cut %d: recovered %d points to offset %d, want %d points to offset %d",
				cut, len(pts), valid, wantN, wantValid)
		}
		if wantN > 0 && !reflect.DeepEqual(pts, full[:wantN]) {
			t.Fatalf("cut %d: recovered points differ from the journal prefix", cut)
		}
	}
	for cut := 0; cut <= len(raw); cut++ {
		pts, valid := readJournal(raw[:cut])
		check(cut, pts, valid)
	}

	dir := t.TempDir()
	for _, cut := range []int{0, int(boundaries[0]) / 2, len(raw)} {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.bin", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		pts, valid, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("cut %d: ReadJournal: %v", cut, err)
		}
		check(cut, pts, valid)
	}
}

// TestJournalTruncationResume spot-checks full farm recovery at a few
// characteristic cuts (empty file, mid-first-record, a record boundary,
// one byte short of complete): resuming over the torn journal must
// reproduce the uninterrupted report byte for byte.
func TestJournalTruncationResume(t *testing.T) {
	raw, _ := completeJournal(t)
	spec := testSpec()
	want := encode(t, mustRun(t, spec, Options{Workers: 4}))

	firstRec := 0
	for i := 1; i <= len(raw); i++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "j.bin")
		if err := os.WriteFile(p, raw[:i], 0o644); err != nil {
			t.Fatal(err)
		}
		if pts, _, _ := ReadJournal(p); len(pts) == 1 {
			firstRec = i
			break
		}
	}
	cuts := []int{0, firstRec / 2, firstRec, len(raw) - 1}
	for _, cut := range cuts {
		path := filepath.Join(t.TempDir(), "torn.bin")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep := mustRun(t, spec, Options{Workers: 4, Journal: path})
		if got := encode(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: resumed report differs from the uninterrupted one", cut)
		}
	}
}

// TestMergePoints pins the merge contract: order-insensitive,
// duplicate-tolerant for identical copies, conflict-rejecting for
// disagreeing ones.
func TestMergePoints(t *testing.T) {
	_, full := completeJournal(t)
	if len(full) < 3 {
		t.Fatal("need at least 3 points")
	}

	shuffled := []Point{full[2], full[0], full[1], full[2], full[0]}
	merged, dups, err := MergePoints(shuffled)
	if err != nil {
		t.Fatalf("MergePoints: %v", err)
	}
	if dups != 2 {
		t.Fatalf("absorbed %d duplicates, want 2", dups)
	}
	want := sortByIndex(full[:3])
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merge is not order-insensitive")
	}

	conflicting := *full[0].Result
	conflicting.Delivered++
	_, _, err = MergePoints([]Point{full[0], {Index: full[0].Index, Result: &conflicting}})
	if err == nil {
		t.Fatal("conflicting duplicate records merged silently")
	}
}

// TestMergeJournals pins the multi-file merge: points spread over
// several per-worker journals (with overlap) merge into the complete
// set, and missing files read as empty.
func TestMergeJournals(t *testing.T) {
	_, full := completeJournal(t)
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "w0.journal"),
		filepath.Join(dir, "w1.journal"),
		filepath.Join(dir, "missing.journal"),
	}
	write := func(path string, pts []Point) {
		j, prior, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(prior) != 0 {
			t.Fatalf("fresh journal %s reports %d prior points", path, len(prior))
		}
		for _, p := range pts {
			if err := j.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	half := len(full) / 2
	write(paths[0], full[:half+1]) // overlaps one point with w1
	write(paths[1], full[half:])

	merged, dups, err := MergeJournals(paths...)
	if err != nil {
		t.Fatalf("MergeJournals: %v", err)
	}
	if dups != 1 {
		t.Fatalf("absorbed %d duplicates, want 1", dups)
	}
	if !reflect.DeepEqual(merged, sortByIndex(full)) {
		t.Fatalf("merged journals differ from the complete point set")
	}
}

// sortByIndex returns a copy of pts sorted by point index (journals
// record completion order; merges report index order).
func sortByIndex(pts []Point) []Point {
	out := append([]Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
