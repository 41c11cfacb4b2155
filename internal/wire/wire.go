// Package wire is the compact, versioned binary encoding behind the
// repository's content addresses and persisted state. Its frames are
// the service specs internal/serve keys its cache by (LayoutSpec,
// PackagingSpec, FaultSpec, RouteSpec, SweepSpec), the RouteResult a
// sweep-farm journal record embeds, and, through Encoder and Decoder,
// the checkpoint layer's frames (the snapshot Spec and Checkpoint in
// internal/snapshot, the SweepPoint record in internal/sweepfarm). The
// built artifacts themselves (layouts, packaging plans) are answered as
// JSON and have no frame.
//
// Every message is framed as
//
//	byte 0-1  magic "BF"
//	byte 2    type tag (one per marshalable type; see the Type constants)
//	byte 3    format version of that type (see the Version constants)
//	byte 4-   body
//
// and the body is built from four primitives: minimal-length unsigned
// varints, minimal-length zigzag varints, big-endian IEEE-754 float64s,
// and length-prefixed byte strings. The encoding is canonical: a value
// has exactly one valid byte representation. Decoders reject
// non-minimal varints, NaN floats, trailing bytes, and over-long length
// prefixes, so for every type
//
//	Unmarshal(b) == nil  =>  Marshal(Unmarshal(b)) == b
//
// byte for byte. This is what makes the encoding safe to use as a
// content address: internal/serve keys its artifact cache by the
// SHA-256 of a spec's canonical encoding.
//
// Versioning and compatibility rules (see DESIGN.md section 9):
//
//   - The version byte is per type, not global. Adding a new field to a
//     type bumps that type's version; all other types keep theirs.
//   - Decoders accept exactly the versions they know and reject newer
//     ones with ErrVersion - a v1 decoder never silently misreads v2
//     bytes.
//   - Type tags are never reused or renumbered; retired types leave a
//     hole in the tag space. Tags 1, 3 and 5 are such holes, and
//     TestRetiredTagsRejected keeps every decoder refusing them.
//   - Corrupt input must produce an error, never a panic; the fuzzers
//     in fuzz_test.go enforce this.
//
// The tests in this package and in internal/snapshot hold these rules
// at run time (see DESIGN.md section 13). Every sample value must
// round-trip to an equal value; every exported field, down to the
// structs other packages declare, must be non-zero in some sample; and
// every sample's bytes must equal its committed golden frame
// testdata/golden/<name>.v<N>.bin, N being the version byte the frame
// carries. So to change a type's fields: bump its Version constant
// below, update both encode and decode paths, give some sample a
// non-zero value for each new field, and write the new version's frames
// with `go test ./internal/wire -run TestGoldenFrames -update`, which
// writes only missing frames. A byte change under an unchanged version
// fails however the frames are regenerated. A type that embeds the
// changed one changes its bytes too and needs its own bump: RouteSpec
// embeds FaultSpec, and the snapshot frames embed RouteSpec.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type tags. Never renumber or reuse these: the tag is part of every
// persisted encoding. Tags 1, 3 and 5 are retired (they framed butterfly
// graphs, layout results and packaging plans, which nothing read); no
// decoder accepts them and no new type may take them.
const (
	TypeLayoutSpec    byte = 2
	TypePackagingSpec byte = 4
	TypeFaultSpec     byte = 6
	TypeRouteSpec     byte = 7
	TypeRouteResult   byte = 8
	TypeSweepSpec     byte = 9
	// Tags 10-12 belong to the checkpoint layer: the stack spec and
	// checkpoint frames live in internal/snapshot and the sweep-farm
	// journal record in internal/sweepfarm, all built on this package's
	// Encoder and Decoder so the canonical-encoding contract carries over.
	TypeSimSpec    byte = 10
	TypeCheckpoint byte = 11
	TypeSweepPoint byte = 12
)

// Current format versions, one per type tag.
const (
	VersionLayoutSpec    byte = 1
	VersionPackagingSpec byte = 1
	VersionFaultSpec     byte = 1
	VersionRouteSpec     byte = 1
	VersionRouteResult   byte = 1
	VersionSweepSpec     byte = 1
	VersionSimSpec       byte = 1
	VersionCheckpoint    byte = 1
	VersionSweepPoint    byte = 1
)

// magic is the two-byte frame prefix of every wire message.
var magic = [2]byte{'B', 'F'}

// Sentinel decode errors; all decode failures wrap one of these.
var (
	// ErrTruncated marks input that ends before the structure does.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrMagic marks input that does not start with the "BF" frame.
	ErrMagic = errors.New("wire: bad magic")
	// ErrType marks a frame whose type tag is not the decoder's.
	ErrType = errors.New("wire: wrong type tag")
	// ErrVersion marks a frame version this decoder does not know.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrCanonical marks structurally readable input that is not the
	// canonical encoding of any value (non-minimal varint, NaN float,
	// unsorted list, trailing bytes, over-long length prefix).
	ErrCanonical = errors.New("wire: non-canonical encoding")
	// ErrRange marks a field whose decoded value is outside its
	// representable range (e.g. an int field that overflows int).
	ErrRange = errors.New("wire: value out of range")
)

// maxBytesLen bounds a length-prefixed byte string, so a corrupt prefix
// cannot force a huge allocation; the longest real one is a spec frame
// embedded in a checkpoint.
const maxBytesLen = 1 << 24

// Encoder accumulates a canonical frame. Every frame type encodes
// through it: the ones in this package and the checkpoint layer's
// (internal/snapshot, internal/sweepfarm), which so keep the same
// canonical-encoding contract. Create with NewEncoder; read the bytes
// with Encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a frame with the standard magic/tag/version header.
func NewEncoder(typ, version byte) *Encoder {
	return &Encoder{buf: []byte{magic[0], magic[1], typ, version}}
}

// Uvarint appends a minimal-length unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a minimal-length zigzag varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Uint appends a non-negative int as an unsigned varint.
func (e *Encoder) Uint(v int) { e.Uvarint(uint64(v)) }

// Int appends an int as a zigzag varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends one 0/1 byte.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Float64 appends a big-endian IEEE-754 float64.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bytes appends a length-prefixed byte string, such as a whole frame
// embedded in another.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Encoding returns the encoding accumulated so far.
func (e *Encoder) Encoding() []byte { return e.buf }

// Decoder consumes a canonical frame. The first error sticks (every
// getter returns a zero value after it); Finish rejects trailing bytes
// and returns it.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder validates the frame header (magic, tag, version) and
// positions the decoder at the body. Header failures stick like any
// other decode error.
func NewDecoder(data []byte, typ, version byte) *Decoder {
	d := &Decoder{buf: data}
	if len(data) < 4 {
		d.err = fmt.Errorf("%w: %d-byte input is shorter than the 4-byte header", ErrTruncated, len(data))
		return d
	}
	if data[0] != magic[0] || data[1] != magic[1] {
		d.err = fmt.Errorf("%w: got %q", ErrMagic, data[:2])
		return d
	}
	if data[2] != typ {
		d.err = fmt.Errorf("%w: got tag %d, want %d", ErrType, data[2], typ)
		return d
	}
	if data[3] != version {
		d.err = fmt.Errorf("%w: got version %d, this decoder knows only %d", ErrVersion, data[3], version)
		return d
	}
	d.off = 4
	return d
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) rem() int { return len(d.buf) - d.off }

// Uvarint reads a minimal-length unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: unterminated or oversized uvarint at offset %d", ErrTruncated, d.off))
		return 0
	}
	if n != uvarintLen(v) {
		d.fail(fmt.Errorf("%w: non-minimal uvarint at offset %d", ErrCanonical, d.off))
		return 0
	}
	d.off += n
	return v
}

// Varint reads a minimal-length zigzag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: unterminated or oversized varint at offset %d", ErrTruncated, d.off))
		return 0
	}
	zig := uint64(v) << 1
	if v < 0 {
		zig = ^zig
	}
	if n != uvarintLen(zig) {
		d.fail(fmt.Errorf("%w: non-minimal varint at offset %d", ErrCanonical, d.off))
		return 0
	}
	d.off += n
	return v
}

// Uint reads a non-negative value that must fit in int.
func (d *Decoder) Uint() int {
	v := d.Uvarint()
	if d.err == nil && v > uint64(math.MaxInt) {
		d.fail(fmt.Errorf("%w: %d overflows int", ErrRange, v))
		return 0
	}
	return int(v)
}

// Int reads a signed value that must fit in int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if d.err == nil && (v > math.MaxInt || v < math.MinInt) {
		d.fail(fmt.Errorf("%w: %d overflows int", ErrRange, v))
		return 0
	}
	return int(v)
}

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.rem() < 1 {
		d.fail(fmt.Errorf("%w: missing bool at offset %d", ErrTruncated, d.off))
		return false
	}
	b := d.buf[d.off]
	if b > 1 {
		d.fail(fmt.Errorf("%w: bool byte %d at offset %d", ErrCanonical, b, d.off))
		return false
	}
	d.off++
	return b == 1
}

// Float64 reads a big-endian IEEE-754 float64, rejecting NaN.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.rem() < 8 {
		d.fail(fmt.Errorf("%w: missing float64 at offset %d", ErrTruncated, d.off))
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	if math.IsNaN(v) {
		d.fail(fmt.Errorf("%w: NaN float64 at offset %d", ErrCanonical, d.off))
		return 0
	}
	d.off += 8
	return v
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxBytesLen {
		d.fail(fmt.Errorf("%w: byte string length %d exceeds cap %d", ErrRange, n, maxBytesLen))
		return nil
	}
	if uint64(d.rem()) < n {
		d.fail(fmt.Errorf("%w: byte string of %d bytes with only %d remaining", ErrTruncated, n, d.rem()))
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b
}

// ListLen reads an element count and rejects counts that cannot fit in
// the remaining bytes (every element occupies at least minBytes), so a
// corrupt length prefix cannot force a huge allocation.
func (d *Decoder) ListLen(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.rem()/minBytes) {
		d.fail(fmt.Errorf("%w: list of %d elements cannot fit in %d remaining bytes", ErrTruncated, n, d.rem()))
		return 0
	}
	return int(n)
}

// Err returns the sticky decode error, if any, without the
// trailing-bytes check.
func (d *Decoder) Err() error { return d.err }

// Finish rejects trailing bytes and returns the sticky error.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the structure", ErrCanonical, d.rem())
	}
	return nil
}

// uvarintLen returns the minimal encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
