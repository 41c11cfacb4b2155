package bfvlsi

import (
	"bytes"
	"strings"
	"testing"

	"bfvlsi/internal/fftsim"
)

func TestFacadeQuickPath(t *testing.T) {
	// The README quick-start path, end to end.
	res, err := LayoutButterfly(6)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Area <= 0 || st.Wires != 2*6*64 {
		t.Errorf("stats = %+v", st)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeTransformAndPackage(t *testing.T) {
	spec, err := NewGroupSpec(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb := Transform(spec)
	if err := sb.VerifyAutomorphism(); err != nil {
		t.Fatal(err)
	}
	if PackageRows(sb).Stats().AvgOffLinksPerNode >= 2 {
		t.Error("row packaging worse than the naive baseline")
	}
	if PackageNuclei(sb).NumModules == 0 {
		t.Error("nucleus packaging empty")
	}
}

func TestFacadeMultilayer(t *testing.T) {
	res, err := LayoutMultilayer(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers != 4 {
		t.Errorf("layers = %d", res.Layers)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeCollinear(t *testing.T) {
	ta, err := CollinearKN(9)
	if err != nil {
		t.Fatal(err)
	}
	if ta.NumTracks != 20 {
		t.Errorf("K_9 tracks = %d, want 20", ta.NumTracks)
	}
	if _, err := CollinearKN(1); err == nil {
		t.Error("CollinearKN(1) should fail: K_1 has no links")
	}
}

func TestFacadeBoardDesign(t *testing.T) {
	d, err := DesignBoard(9, 64, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumChips != 64 || d.BoardArea(2) != 409600 {
		t.Errorf("board design off: chips=%d area=%d", d.NumChips, d.BoardArea(2))
	}
}

func TestFacadeRoutingAndFFT(t *testing.T) {
	r, err := SimulateRouting(RoutingParams{N: 3, Lambda: 0.05, Warmup: 50, Cycles: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 {
		t.Error("nothing delivered")
	}
	spec, _ := NewGroupSpec(2, 2)
	in := NewISN(spec)
	x := make([]complex128, in.Rows)
	x[1] = 1
	out, err := FFTOnISN(in, x)
	if err != nil {
		t.Fatal(err)
	}
	if e := fftsim.MaxError(out.Output, fftsim.DFT(x)); e > 1e-9 {
		t.Errorf("fft error %v", e)
	}
}

func TestFacadeFormulas(t *testing.T) {
	if PaperThompsonArea(9) <= 0 || PaperMultilayerArea(9, 4) >= PaperThompsonArea(9) {
		t.Error("formula facade inconsistent")
	}
}

func TestFacadeHypercubeAndTorus(t *testing.T) {
	q, err := LayoutHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Error(err)
	}
	tor, err := LayoutTorus(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tor.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeRenderSVG(t *testing.T) {
	res, err := LayoutButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSVG(&buf, res.L, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("not an SVG")
	}
}

func TestFacadeBenes(t *testing.T) {
	sw := NewBenes(4)
	perm := make([]int, sw.T)
	for i := range perm {
		perm[i] = (i + 5) % sw.T
	}
	if err := sw.Route(perm); err != nil {
		t.Fatal(err)
	}
	if err := sw.Verify(perm); err != nil {
		t.Error(err)
	}
}

func TestFacadeMultiLevelDesign(t *testing.T) {
	spec, _ := NewGroupSpec(3, 3, 3)
	d, err := DesignMultiLevelBoard(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBoards != 8 || d.BoardPins != 224 {
		t.Errorf("multi-level: %d boards, %d pins", d.NumBoards, d.BoardPins)
	}
}

func TestFacadeLayoutWithParams(t *testing.T) {
	spec, _ := NewGroupSpec(2, 2)
	res, err := LayoutWithParams(LayoutParams{Spec: spec, NodeSide: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeSide != 6 {
		t.Errorf("node side = %d", res.NodeSide)
	}
}

func TestFacadeSaturationRate(t *testing.T) {
	rate, err := SaturationRate(3, SaturationOptions{
		Warmup: 100, Cycles: 200, Steps: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || rate >= 1 {
		t.Errorf("rate = %v", rate)
	}
}

func TestFacadeButterflyAndSpecForDim(t *testing.T) {
	b := NewButterfly(4)
	if err := b.Verify(); err != nil {
		t.Error(err)
	}
	if SpecForDim(9).String() != "(3,3,3)" {
		t.Errorf("SpecForDim(9) = %v", SpecForDim(9))
	}
}
