package wire

import (
	"bytes"
	"encoding"
	"errors"
	"testing"

	"bfvlsi/internal/routing"
)

// decoders instantiates one zero value per wire type; the fuzzer feeds
// the same raw bytes to all of them.
func decoders() []binaryCodec {
	return []binaryCodec{
		&LayoutSpec{}, &PackagingSpec{},
		&FaultSpec{}, &RouteSpec{}, &RouteResult{}, &SweepSpec{},
	}
}

// retiredTags are the type tags of frames no longer read: butterfly
// graphs (1), layout results (3) and packaging plans (5).
var retiredTags = []byte{1, 3, 5}

// TestRetiredTagsRejected holds the rule that tags are never reused: a
// frame carrying a retired tag, with the version byte its type last had
// and one body byte, is refused as a wrong type by every decoder.
func TestRetiredTagsRejected(t *testing.T) {
	for _, tag := range retiredTags {
		frame := []byte{'B', 'F', tag, 1, 0}
		for _, d := range decoders() {
			if err := d.UnmarshalBinary(frame); !errors.Is(err, ErrType) {
				t.Errorf("%T decoding % x: got %v, want ErrType", d, frame, err)
			}
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to every decoder. The contract
// under test: decode never panics, and whenever decode succeeds the
// re-encoding is byte-identical to the input (the canonical-form
// invariant behind content addressing).
func FuzzWireDecode(f *testing.F) {
	seed := func(v encoding.BinaryMarshaler) {
		b, err := v.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(&LayoutSpec{Family: FamilyCollinear, N: 4})
	seed(&LayoutSpec{Family: FamilyThompson, Widths: []int{2, 2}})
	seed(&PackagingSpec{N: 4, Variant: VariantNucleus})
	seed(&FaultSpec{N: 3, LinkRate: 0.1, Seed: 1})
	seed(&RouteSpec{N: 3, Lambda: 0.05, Cycles: 10, Pattern: routing.Shuffle})
	seed(&RouteResult{Nodes: 8, Injected: 3, Delivered: 3})
	seed(&SweepSpec{N: 3, Lambda: 0.05, Cycles: 20, Rates: []float64{0, 0.1}})
	f.Add([]byte{})
	f.Add([]byte{'B', 'F'})
	for _, tag := range retiredTags {
		f.Add([]byte{'B', 'F', tag, 1, 0})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range decoders() {
			if err := d.UnmarshalBinary(data); err != nil {
				continue
			}
			re, err := d.MarshalBinary()
			if err != nil {
				t.Fatalf("%T: decoded ok but re-encode failed: %v", d, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("%T: accepted non-canonical input:\n in=%x\nout=%x", d, data, re)
			}
		}
	})
}

// FuzzRouteSpecRoundTrip builds structured specs from fuzz arguments:
// any spec that validates must round-trip byte-identically, and any
// decodable encoding must validate back.
func FuzzRouteSpecRoundTrip(f *testing.F) {
	f.Add(4, 0.05, 100, 500, int64(42), 4, 64, 1, 1, false)
	f.Add(3, 0.5, 0, 10, int64(-1), 0, 0, 4, 0, true)
	f.Fuzz(func(t *testing.T, n int, lambda float64, warmup, cycles int,
		seed int64, bufLimit, ttl, pattern, policy int, withFault bool) {
		spec := &RouteSpec{
			N: n, Lambda: lambda, Warmup: warmup, Cycles: cycles, Seed: seed,
			BufferLimit: bufLimit, TTL: ttl,
			Pattern: routing.Pattern(pattern), Policy: routing.Policy(policy),
		}
		if withFault {
			spec.Fault = &FaultSpec{N: n, LinkRate: 0.1, Seed: seed}
		}
		if spec.Validate() != nil {
			return
		}
		b1, err := spec.MarshalBinary()
		if err != nil {
			t.Fatalf("valid spec failed to marshal: %v", err)
		}
		var out RouteSpec
		if err := out.UnmarshalBinary(b1); err != nil {
			t.Fatalf("own encoding failed to decode: %v", err)
		}
		b2, err := out.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encode differs:\n b1=%x\n b2=%x", b1, b2)
		}
	})
}

// FuzzLayoutSpecRoundTrip does the same for layout specs across all
// four families.
func FuzzLayoutSpecRoundTrip(f *testing.F) {
	f.Add(0, 8, 0, 0, 0, 0, false, 0, false, 0, 0, 0)
	f.Add(1, 0, 2, 2, 2, 4, true, 6, false, 0, 0, 0)
	f.Add(2, 0, 2, 2, 2, 2, false, 0, false, 2, 0, 0)
	f.Add(3, 9, 0, 0, 0, 0, false, 0, false, 0, 64, 20)
	f.Fuzz(func(t *testing.T, family, n, w1, w2, w3, layers int, multi bool,
		nodeSide int, noReorder bool, sliceLayers, maxPins, chipSide int) {
		var widths []int
		for _, w := range []int{w1, w2, w3} {
			if w != 0 {
				widths = append(widths, w)
			}
		}
		spec := &LayoutSpec{
			Family: Family(family), N: n, Widths: widths,
			Layers: layers, Multilayer: multi, NodeSide: nodeSide,
			NoTrackReorder: noReorder, SliceLayers: sliceLayers,
			MaxPins: maxPins, ChipSide: chipSide,
		}
		if spec.Validate() != nil {
			return
		}
		b1, err := spec.MarshalBinary()
		if err != nil {
			t.Fatalf("valid spec failed to marshal: %v", err)
		}
		var out LayoutSpec
		if err := out.UnmarshalBinary(b1); err != nil {
			t.Fatalf("own encoding failed to decode: %v", err)
		}
		b2, err := out.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encode differs:\n b1=%x\n b2=%x", b1, b2)
		}
	})
}
