package sweepfarm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bfvlsi/internal/routing"
	"bfvlsi/internal/wire"
)

// The journal is a flat file of completed sweep points, one
// length-prefixed TypeSweepPoint frame per record:
//
//	uvarint record length | "BF" | tag 12 | version 1 | point index | result frame
//
// Records are appended under a lock and fsynced one at a time, so a
// crash can lose at most the record being written — a torn tail. The
// reader stops at the first incomplete or undecodable record and
// reports the byte offset of the last good one; the writer truncates
// there before appending, so a resumed farm never buries valid records
// behind garbage. The parent directory is fsynced after the file is
// created, so the journal's directory entry survives a machine crash,
// not just a process kill.

// maxRecordLen bounds a journal record; a real record is well under a
// kilobyte.
const maxRecordLen = 1 << 20

// Point is one completed sweep point: the index into Spec.Points and
// the finished run's full counter set.
type Point struct {
	Index  int
	Result *routing.Result
}

// marshalPoint encodes a point as a TypeSweepPoint frame.
func marshalPoint(p Point) ([]byte, error) {
	rr := wire.RouteResult(*p.Result)
	rb, err := rr.MarshalBinary()
	if err != nil {
		return nil, err
	}
	e := wire.NewEncoder(wire.TypeSweepPoint, wire.VersionSweepPoint)
	e.Uint(p.Index)
	e.Bytes(rb)
	return e.Encoding(), nil
}

// unmarshalPoint decodes a TypeSweepPoint frame.
func unmarshalPoint(b []byte) (Point, error) {
	d := wire.NewDecoder(b, wire.TypeSweepPoint, wire.VersionSweepPoint)
	idx := d.Uint()
	rb := d.Bytes()
	if err := d.Finish(); err != nil {
		return Point{}, err
	}
	var rr wire.RouteResult
	if err := rr.UnmarshalBinary(rb); err != nil {
		return Point{}, err
	}
	res := routing.Result(rr)
	return Point{Index: idx, Result: &res}, nil
}

// Journal is an open append handle on a completed-point journal file.
// One farm (or one dispatch worker lane) appends; every append is
// fsynced before it returns, so a journaled point survives a hard kill.
// Append and Close serialize on an internal mutex, so concurrent
// appenders (a hedge pair both delivering into the same lane) interleave
// whole records rather than tearing each other's frames.
type Journal struct {
	path string
	mu   sync.Mutex
	f    *os.File //bflint:guardedby mu
}

// OpenJournal opens the journal at path for appending, creating it if
// absent, and returns the points already present. A torn or corrupt
// tail (the wake of a crash mid-append) is truncated away first, so new
// records are never buried behind garbage. When the file is created the
// parent directory is fsynced too: a machine crash after OpenJournal
// cannot lose the directory entry, only (at most) the record being
// appended when it hit.
func OpenJournal(path string) (*Journal, []Point, error) {
	pts, valid, err := ReadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("sweepfarm: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	// Persist the truncation before appending: a crash between a
	// truncate and the first new append must not resurrect the torn tail.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("sweepfarm: journal sync: %w", err)
	}
	if created {
		if err := syncDir(path); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	return &Journal{path: path, f: f}, pts, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append writes one length-prefixed record and syncs it to disk before
// returning. Append is safe for concurrent use: records are written
// whole under the journal's mutex.
func (j *Journal) Append(p Point) error {
	rec, err := marshalPoint(p)
	if err != nil {
		return err
	}
	buf := binary.AppendUvarint(make([]byte, 0, len(rec)+4), uint64(len(rec)))
	buf = append(buf, rec...)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("sweepfarm: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweepfarm: journal sync: %w", err)
	}
	return nil
}

// Close releases the journal's file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// syncDir fsyncs the directory holding path, making a freshly created
// file's directory entry durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("sweepfarm: opening journal directory: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("sweepfarm: syncing journal directory: %w", err)
	}
	return d.Close()
}

// ReadJournal reads every complete record of a journal file. A missing
// file is an empty journal. The second return is the byte offset just
// past the last complete record: a torn or corrupt tail (the wake of a
// crash mid-append) is tolerated by stopping there, and OpenJournal
// truncates the file to that offset before appending.
func ReadJournal(path string) ([]Point, int64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	pts, off := readJournal(b)
	return pts, off, nil
}

// readJournal decodes the complete records at the front of a journal's
// bytes and returns them with the offset just past the last one.
func readJournal(b []byte) ([]Point, int64) {
	var pts []Point
	var off int64
	for int(off) < len(b) {
		n, k := binary.Uvarint(b[off:])
		if k <= 0 || n > maxRecordLen || k != uvarintLen(n) {
			break
		}
		start := off + int64(k)
		if start+int64(n) > int64(len(b)) {
			break
		}
		p, err := unmarshalPoint(b[start : start+int64(n)])
		if err != nil {
			break
		}
		pts = append(pts, p)
		off = start + int64(n)
	}
	return pts, off
}

// uvarintLen returns the minimal encoded length of v; ReadJournal
// rejects non-minimal length prefixes so the readable prefix of a
// journal is exactly the canonical encoding of its points.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// MergePoints merges point records from any number of sources into one
// set sorted by index. Records carry their point index, so the merge is
// order-insensitive, and it is duplicate-tolerant: the same point
// delivered twice (a hedged request, a journal replayed into two files)
// merges cleanly exactly when every copy encodes identically. Copies
// that disagree are a real fault — two workers claiming different
// results for one deterministic point — and fail the merge. The second
// return counts the duplicate records absorbed.
func MergePoints(pts []Point) ([]Point, int, error) {
	byIndex := make(map[int][]byte, len(pts))
	out := make([]Point, 0, len(pts))
	dups := 0
	for _, p := range pts {
		enc, err := marshalPoint(p)
		if err != nil {
			return nil, 0, err
		}
		if prev, ok := byIndex[p.Index]; ok {
			if !bytes.Equal(prev, enc) {
				return nil, 0, fmt.Errorf("sweepfarm: conflicting duplicate records for point %d", p.Index)
			}
			dups++
			continue
		}
		byIndex[p.Index] = enc
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, dups, nil
}

// MergeJournals reads every journal file and merges their records with
// MergePoints: the combined point set of a farm whose work was spread
// over many per-worker journals. Missing files read as empty journals,
// and each file's own torn tail is tolerated as in ReadJournal.
func MergeJournals(paths ...string) ([]Point, int, error) {
	var all []Point
	for _, path := range paths {
		pts, _, err := ReadJournal(path)
		if err != nil {
			return nil, 0, fmt.Errorf("sweepfarm: merging %s: %w", path, err)
		}
		all = append(all, pts...)
	}
	return MergePoints(all)
}
