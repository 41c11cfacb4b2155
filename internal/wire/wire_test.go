package wire

import (
	"bytes"
	"encoding"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"bfvlsi/internal/routing"
)

// binaryCodec pairs both halves of the standard marshaling interfaces.
type binaryCodec interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// sampleValues returns populated values of every marshalable type;
// every round-trip, framing and golden-frame test runs over all of
// them, so adding a type here extends the whole property suite. The
// first sample of each type is its representative; the others set what
// it leaves zero, and keep apart same-typed fields it sets equal, as
// TestSampleCoverage requires.
func sampleValues(t *testing.T) map[string]binaryCodec {
	t.Helper()
	rr := RouteResult{
		Nodes: 64, Injected: 100, Delivered: 95,
		Throughput: 0.031, AvgLatency: 7.25, AvgHops: 6.5,
		MaxQueue: 3, Backlog: 5, BoundaryCrossingsPerCycle: 1.5,
		InjectionDrops: 1, Stalls: 2, Dropped: 3, Unreachable: 6,
		Misroutes: 4, Detours: 2, Reroutes: 1,
		UnreachableDead: 3, UnreachableCut: 2, UnreachableDetected: 1,
		Retransmitted: 9, DuplicatesDropped: 2, GaveUp: 1,
		TotalInjected: 130, TotalDelivered: 118,
	}
	return map[string]binaryCodec{
		"layoutSpec": &LayoutSpec{
			Family: FamilyThompson, Widths: []int{2, 2, 2},
			Layers: 4, Multilayer: true, NodeSide: 6, NoTrackReorder: true,
		},
		"packagingSpec": &PackagingSpec{N: 6, Variant: VariantNaive, RowsPerModule: 8},
		"faultSpec": &FaultSpec{
			N: 5, LinkRate: 0.05, NodeRate: 0.01, Seed: -7,
			TransientCount: 3, TransientHorizon: 100, TransientRepair: 20,
			Events: []FaultEvent{{Node: 4, Out: 1, Start: 10, RepairAfter: 5}, {Node: 9, Out: -1, Start: 0}},
		},
		"routeSpec": &RouteSpec{
			N: 4, Lambda: 0.05, Warmup: 100, Cycles: 500, Seed: 42,
			BufferLimit: 4, TTL: 64, Pattern: routing.Shuffle, Policy: routing.DropDead,
			Fault: &FaultSpec{N: 4, LinkRate: 0.02, Seed: 3},
		},
		"routeResult": &rr,
		"sweepSpec": &SweepSpec{
			N: 4, Lambda: 0.05, Warmup: 50, Cycles: 200, Seed: 9,
			TTL: 32, Rates: []float64{0, 0.01, 0.05},
		},

		"layoutSpecMultilayer": &LayoutSpec{
			Family: FamilyThompson, Widths: []int{2, 2}, Layers: 4, Multilayer: true,
		},
		"layoutSpecStack3D": &LayoutSpec{
			Family: FamilyStack3D, Widths: []int{2, 2, 2, 2}, SliceLayers: 2,
		},
		"layoutSpecHierarchy": &LayoutSpec{Family: FamilyHierarchy, N: 9, MaxPins: 64, ChipSide: 20},
		"routeSpecBuffered": &RouteSpec{
			N: 5, Lambda: 0.1, Warmup: 20, Cycles: 80, Seed: 1,
			BufferLimit: 2, TTL: 40,
		},
		"routeResultDistinct": &RouteResult{
			Nodes: 160, Injected: 140, Delivered: 120,
			Throughput: 0.02, AvgLatency: 9.5, AvgHops: 5.25,
			MaxQueue: 7, Backlog: 11, BoundaryCrossingsPerCycle: 0.75,
			InjectionDrops: 13, Stalls: 17, Dropped: 19, Unreachable: 18,
			Misroutes: 23, Detours: 29, Reroutes: 31,
			UnreachableDead: 8, UnreachableCut: 6, UnreachableDetected: 4,
			Retransmitted: 37, DuplicatesDropped: 41, GaveUp: 43,
			TotalInjected: 177, TotalDelivered: 161,
		},
		"sweepSpecBuffered": &SweepSpec{
			N: 5, Lambda: 0.08, Warmup: 30, Cycles: 120, Seed: 2,
			BufferLimit: 3, TTL: 40, Rates: []float64{0.02},
		},
	}
}

// newValue returns a fresh zero value of the same concrete type.
func newValue(v binaryCodec) binaryCodec {
	return reflect.New(reflect.TypeOf(v).Elem()).Interface().(binaryCodec)
}

// The acceptance property: encode -> decode -> encode is byte-identical
// for every marshalable type, and the decoded value equals the
// original.
func TestRoundTripByteIdentity(t *testing.T) {
	for name, v := range sampleValues(t) {
		t.Run(name, func(t *testing.T) {
			b1, err := v.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			dec := newValue(v)
			if err := dec.UnmarshalBinary(b1); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(v, dec) {
				t.Fatalf("decode mismatch:\n got %+v\nwant %+v", dec, v)
			}
			b2, err := dec.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("re-encode differs:\n b1=%x\n b2=%x", b1, b2)
			}
		})
	}
}

// Framing errors: wrong magic, wrong tag, future version, truncation at
// every prefix length, and trailing garbage all must error (never
// panic) for every type.
func TestDecodeFraming(t *testing.T) {
	for name, v := range sampleValues(t) {
		t.Run(name, func(t *testing.T) {
			b, err := v.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			check := func(data []byte, want error) {
				t.Helper()
				err := newValue(v).UnmarshalBinary(data)
				if err == nil {
					t.Fatalf("decode of corrupted input succeeded")
				}
				if want != nil && !errors.Is(err, want) {
					t.Fatalf("error %v, want %v", err, want)
				}
			}
			bad := bytes.Clone(b)
			bad[0] = 'X'
			check(bad, ErrMagic)

			bad = bytes.Clone(b)
			bad[2] ^= 0x40
			check(bad, ErrType)

			bad = bytes.Clone(b)
			bad[3] = 200
			check(bad, ErrVersion)

			for i := 0; i < len(b); i++ {
				check(b[:i], nil)
			}
			check(append(bytes.Clone(b), 0), ErrCanonical)
		})
	}
}

// Canonicality: a non-minimal varint must be rejected, so every value
// has exactly one encoding and SHA-256 of the bytes is a usable content
// address.
func TestDecodeRejectsNonMinimalVarint(t *testing.T) {
	s := &PackagingSpec{N: 6, Variant: VariantRow}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Body starts at byte 4 with uvarint(6) = 0x06; 0x86 0x00 encodes
	// the same value in two bytes.
	bad := append(bytes.Clone(b[:4]), 0x86, 0x00)
	bad = append(bad, b[5:]...)
	var out PackagingSpec
	if err := out.UnmarshalBinary(bad); !errors.Is(err, ErrCanonical) {
		t.Fatalf("non-minimal uvarint: got %v, want ErrCanonical", err)
	}
}

// NaN floats have many bit patterns; the canonical encoding bans them.
func TestDecodeRejectsNaN(t *testing.T) {
	s := &FaultSpec{N: 4, LinkRate: 0.5}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// LinkRate is the first float64 in the body: header(4) + uvarint n(1).
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		b[5+i] = byte(nan >> uint(56-8*i))
	}
	var out FaultSpec
	if err := out.UnmarshalBinary(b); !errors.Is(err, ErrCanonical) {
		t.Fatalf("NaN float: got %v, want ErrCanonical", err)
	}
}

func TestLayoutSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec LayoutSpec
		ok   bool
	}{
		{"collinear ok", LayoutSpec{Family: FamilyCollinear, N: 8}, true},
		{"collinear too small", LayoutSpec{Family: FamilyCollinear, N: 1}, false},
		{"collinear stray widths", LayoutSpec{Family: FamilyCollinear, N: 8, Widths: []int{2}}, false},
		{"thompson ok", LayoutSpec{Family: FamilyThompson, Widths: []int{2, 2, 2}}, true},
		{"thompson multilayer ok", LayoutSpec{Family: FamilyThompson, Widths: []int{2, 2}, Layers: 4, Multilayer: true}, true},
		{"thompson layers without multilayer", LayoutSpec{Family: FamilyThompson, Widths: []int{2, 2}, Layers: 4}, false},
		{"thompson stray n", LayoutSpec{Family: FamilyThompson, N: 6, Widths: []int{2, 2}}, false},
		{"thompson too many widths", LayoutSpec{Family: FamilyThompson, Widths: []int{2, 2, 2, 2}}, false},
		{"stack3d ok", LayoutSpec{Family: FamilyStack3D, Widths: []int{2, 2, 2, 2}, SliceLayers: 2}, true},
		{"stack3d needs 4 widths", LayoutSpec{Family: FamilyStack3D, Widths: []int{2, 2}, SliceLayers: 2}, false},
		{"stack3d needs slice layers", LayoutSpec{Family: FamilyStack3D, Widths: []int{2, 2, 2, 2}}, false},
		{"hierarchy ok", LayoutSpec{Family: FamilyHierarchy, N: 9, MaxPins: 64, ChipSide: 20}, true},
		{"hierarchy missing pins", LayoutSpec{Family: FamilyHierarchy, N: 9}, false},
		{"unknown family", LayoutSpec{Family: Family(9)}, false},
		{"zero width", LayoutSpec{Family: FamilyThompson, Widths: []int{0}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

// Every family must actually build.
func TestLayoutSpecBuildAllFamilies(t *testing.T) {
	specs := []LayoutSpec{
		{Family: FamilyCollinear, N: 8},
		{Family: FamilyThompson, Widths: []int{2, 2, 2}},
		{Family: FamilyStack3D, Widths: []int{2, 2, 2, 2}, SliceLayers: 2},
		{Family: FamilyHierarchy, N: 9, MaxPins: 64, ChipSide: 20},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Family.String(), func(t *testing.T) {
			res, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if res.Family != spec.Family {
				t.Fatalf("result family %v, want %v", res.Family, spec.Family)
			}
			if res.Stats.Area <= 0 {
				t.Fatalf("non-positive area %d", res.Stats.Area)
			}
		})
	}
}

func TestCollinearBuildTrackCount(t *testing.T) {
	res, err := (&LayoutSpec{Family: FamilyCollinear, N: 10}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := (Extra{Name: "numTracks", Value: 25}); !slices.Contains(res.Extras, want) {
		t.Fatalf("extras %v lack %v, floor(100/4) tracks", res.Extras, want)
	}
}

func TestPackagingSpecBuildVariants(t *testing.T) {
	for _, spec := range []PackagingSpec{
		{N: 6, Variant: VariantRow},
		{N: 6, Variant: VariantNucleus},
		{N: 6, Variant: VariantNaive, RowsPerModule: 8},
	} {
		spec := spec
		t.Run(spec.Variant.String(), func(t *testing.T) {
			plan, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if plan.NumModules < 2 {
				t.Fatalf("only %d modules", plan.NumModules)
			}
			if len(plan.ModuleOf) != 7*64 {
				t.Fatalf("ModuleOf has %d entries, want %d", len(plan.ModuleOf), 7*64)
			}
		})
	}
}

// A fault spec must reconstruct the identical plan: two builds of the
// same spec drive two simulations to identical results.
func TestFaultSpecBuildDeterministic(t *testing.T) {
	spec := &FaultSpec{
		N: 4, LinkRate: 0.05, Seed: 11,
		TransientCount: 2, TransientHorizon: 200, TransientRepair: 30,
		Events: []FaultEvent{{Node: 5, Out: 0, Start: 50, RepairAfter: 100}},
	}
	run := func() *routing.Result {
		t.Helper()
		plan, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := routing.Simulate(routing.Params{
			N: 4, Lambda: 0.05, Warmup: 50, Cycles: 300, Seed: 9,
			Faults: plan, TTL: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("two builds of the same fault spec diverged:\n%+v\n%+v", r1, r2)
	}
}

// A fault-free route spec must reproduce the plain simulation packet
// for packet.
func TestRouteSpecRunMatchesSimulate(t *testing.T) {
	spec := &RouteSpec{N: 4, Lambda: 0.05, Warmup: 100, Cycles: 400, Seed: 7, Pattern: routing.Uniform}
	got, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := routing.Simulate(routing.Params{N: 4, Lambda: 0.05, Warmup: 100, Cycles: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("route spec run diverged from plain simulation:\n%+v\n%+v", got, want)
	}
}

func TestSweepSpecRun(t *testing.T) {
	spec := &SweepSpec{N: 3, Lambda: 0.05, Warmup: 20, Cycles: 100, Seed: 5, Rates: []float64{0, 0.2}}
	pts, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].DeadLinks != 0 || pts[0].Err != nil {
		t.Fatalf("zero-rate level: dead=%d err=%v", pts[0].DeadLinks, pts[0].Err)
	}
	if pts[1].DeadLinks == 0 {
		t.Fatal("0.2-rate level killed no links")
	}
	if bad := (&SweepSpec{N: 3, Lambda: 0.05, Cycles: 100}).Validate(); bad == nil {
		t.Fatal("sweep with no rates validated")
	}
	if bad := (&SweepSpec{N: 3, Lambda: 0.05, Cycles: 100, Rates: []float64{1.5}}).Validate(); bad == nil {
		t.Fatal("sweep with rate > 1 validated")
	}
}

func TestRouteSpecValidate(t *testing.T) {
	ok := RouteSpec{N: 4, Lambda: 0.1, Cycles: 100}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]RouteSpec{
		"dim":            {N: 0, Lambda: 0.1, Cycles: 100},
		"lambda":         {N: 4, Lambda: 1.5, Cycles: 100},
		"cycles":         {N: 4, Lambda: 0.1, Cycles: 0},
		"cycle cap":      {N: 4, Lambda: 0.1, Cycles: MaxRouteCycles + 1},
		"pattern":        {N: 4, Lambda: 0.1, Cycles: 100, Pattern: routing.Pattern(99)},
		"policy":         {N: 4, Lambda: 0.1, Cycles: 100, Policy: routing.Policy(9)},
		"fault dim":      {N: 4, Lambda: 0.1, Cycles: 100, Fault: &FaultSpec{N: 5}},
		"fault linkrate": {N: 4, Lambda: 0.1, Cycles: 100, Fault: &FaultSpec{N: 4, LinkRate: 2}},
	}
	for name, spec := range cases {
		spec := spec
		t.Run(name, func(t *testing.T) {
			if err := spec.Validate(); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
}

func TestParseHelpers(t *testing.T) {
	for _, f := range []Family{FamilyCollinear, FamilyThompson, FamilyStack3D, FamilyHierarchy} {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFamily(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFamily("benes"); err == nil {
		t.Fatal("unknown family parsed")
	}
	for _, v := range []Variant{VariantRow, VariantNucleus, VariantNaive} {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("hex"); err == nil {
		t.Fatal("unknown variant parsed")
	}
}
