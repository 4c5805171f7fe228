package vizpipe

import (
	"math"
	"strings"
	"testing"

	"insituviz/internal/mesh"
)

func testDataset(t testing.TB) *Dataset {
	t.Helper()
	m, err := mesh.NewIcosphere(2, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(m, 3600)
	if err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, m.NCells())
	for ci := range lat {
		lat[ci] = m.Cells[ci].Lat
	}
	if err := ds.AddField("lat", lat); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, 0); err == nil {
		t.Error("nil mesh accepted")
	}
	ds := testDataset(t)
	if err := ds.AddField("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := ds.AddField("x", make([]float64, 3)); err == nil {
		t.Error("mis-sized field accepted")
	}
	if _, err := ds.Field("missing"); err == nil {
		t.Error("missing field accepted")
	}
}

func TestAddFieldCopies(t *testing.T) {
	ds := testDataset(t)
	src := make([]float64, ds.Mesh.NCells())
	src[0] = 7
	ds.AddField("v", src)
	src[0] = 99
	f, _ := ds.Field("v")
	if f[0] != 7 {
		t.Error("AddField aliases caller slice")
	}
}

func TestCalculator(t *testing.T) {
	ds := testDataset(t)
	p := &Pipeline{}
	if err := p.Append(&Calculator{
		Output: "abs_lat",
		Inputs: []string{"lat"},
		Fn:     func(args []float64) float64 { return math.Abs(args[0]) },
	}); err != nil {
		t.Fatal(err)
	}
	out, err := p.Execute(ds)
	if err != nil {
		t.Fatal(err)
	}
	f, err := out.Field("abs_lat")
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := out.Field("lat")
	for ci := range f {
		if f[ci] != math.Abs(lat[ci]) {
			t.Fatalf("calculator wrong at cell %d", ci)
		}
	}
	// Input dataset untouched.
	if _, err := ds.Field("abs_lat"); err == nil {
		t.Error("Execute mutated its input")
	}
}

func TestCalculatorErrors(t *testing.T) {
	ds := testDataset(t)
	bad := &Calculator{Output: "x", Inputs: []string{"missing"}, Fn: func(a []float64) float64 { return 0 }}
	if _, err := bad.Apply(ds); err == nil {
		t.Error("missing input accepted")
	}
	unconf := &Calculator{}
	if _, err := unconf.Apply(ds); err == nil {
		t.Error("unconfigured calculator accepted")
	}
	if unconf.Name() == "" {
		t.Error("empty name")
	}
}

func TestThreshold(t *testing.T) {
	ds := testDataset(t)
	th := &Threshold{Field: "lat", Min: 0, Max: math.Pi / 2}
	out, err := th.Apply(ds)
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := out.Field("lat")
	for ci := range lat {
		want := lat[ci] >= 0
		if out.Active(ci) != want {
			t.Fatalf("cell %d: active=%v, lat=%v", ci, out.Active(ci), lat[ci])
		}
	}
	// Northern hemisphere holds roughly half the cells.
	frac := float64(out.ActiveCount()) / float64(out.Mesh.NCells())
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("northern fraction = %v", frac)
	}
	if _, err := (&Threshold{Field: "lat", Min: 1, Max: 0}).Apply(ds); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := (&Threshold{Field: "missing"}).Apply(ds); err == nil {
		t.Error("missing field accepted")
	}
}

func TestMaskIntersection(t *testing.T) {
	ds := testDataset(t)
	p := &Pipeline{}
	p.Append(&ClipLatBand{MinLat: 0, MaxLat: math.Pi / 2}) // north
	p.Append(&Threshold{Field: "lat", Min: -1, Max: 0.5})  // lat <= 0.5
	out, err := p.Execute(ds)
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := out.Field("lat")
	for ci := range lat {
		want := lat[ci] >= 0 && lat[ci] <= 0.5
		if out.Active(ci) != want {
			t.Fatalf("cell %d: intersection wrong (lat %v, active %v)", ci, lat[ci], out.Active(ci))
		}
	}
	if out.ActiveCount() == 0 || out.ActiveCount() == out.Mesh.NCells() {
		t.Errorf("suspicious active count %d", out.ActiveCount())
	}
}

func TestClipLatBandValidation(t *testing.T) {
	ds := testDataset(t)
	if _, err := (&ClipLatBand{MinLat: 1, MaxLat: 0}).Apply(ds); err == nil {
		t.Error("empty band accepted")
	}
	if (&ClipLatBand{}).Name() == "" {
		t.Error("empty name")
	}
}

func TestPipelineErrors(t *testing.T) {
	p := &Pipeline{}
	if err := p.Append(nil); err == nil {
		t.Error("nil filter accepted")
	}
	if _, err := p.Execute(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := testDataset(t)
	p.Append(&Threshold{Field: "missing"})
	if _, err := p.Execute(ds); err == nil {
		t.Error("failing stage not propagated")
	} else if !strings.Contains(err.Error(), "stage 0") {
		t.Errorf("error lacks stage context: %v", err)
	}
	if p.Stages() != 1 {
		t.Errorf("Stages = %d", p.Stages())
	}
}

func TestStatistics(t *testing.T) {
	ds := testDataset(t)
	st, err := Statistics(ds, "lat")
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != ds.Mesh.NCells() {
		t.Errorf("count = %d", st.Count)
	}
	// Area-weighted mean latitude of a sphere is ~0.
	if math.Abs(st.Mean) > 1e-6 {
		t.Errorf("mean lat = %v, want ~0", st.Mean)
	}
	if st.Min >= 0 || st.Max <= 0 {
		t.Errorf("bounds [%v, %v]", st.Min, st.Max)
	}
	sphere := 4 * math.Pi * mesh.EarthRadius * mesh.EarthRadius
	if math.Abs(st.ActiveArea-sphere)/sphere > 1e-9 {
		t.Errorf("active area = %v", st.ActiveArea)
	}
	// Masked statistics.
	clipped, err := (&ClipLatBand{MinLat: 0.5, MaxLat: 1.5}).Apply(ds)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Statistics(clipped, "lat")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Min < 0.5 || st2.Max > 1.5 {
		t.Errorf("masked bounds [%v, %v]", st2.Min, st2.Max)
	}
	// Empty selection errors.
	empty, err := (&ClipLatBand{MinLat: 2.0, MaxLat: 2.01}).Apply(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Statistics(empty, "lat"); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := Statistics(ds, "missing"); err == nil {
		t.Error("missing field accepted")
	}
}

func TestOkuboWeissStylePipeline(t *testing.T) {
	// The paper's actual filter chain: derive a signed field, threshold
	// its rotation-dominated negative tail, and report the selection.
	ds := testDataset(t)
	// Synthetic "W": strongly negative in a polar cap.
	w := make([]float64, ds.Mesh.NCells())
	for ci := range w {
		if ds.Mesh.Cells[ci].Lat > 1.2 {
			w[ci] = -5
		} else {
			w[ci] = 1
		}
	}
	ds.AddField("okubo_weiss", w)
	p := &Pipeline{}
	p.Append(&Calculator{
		Output: "w_sign",
		Inputs: []string{"okubo_weiss"},
		Fn: func(args []float64) float64 {
			if args[0] < 0 {
				return -1
			}
			return 1
		},
	})
	p.Append(&Threshold{Field: "okubo_weiss", Min: math.Inf(-1), Max: -1})
	out, err := p.Execute(ds)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Statistics(out, "w_sign")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean != -1 || st.Min != -1 || st.Max != -1 {
		t.Errorf("selection leaked non-core cells: %+v", st)
	}
	for ci := range w {
		if out.Active(ci) != (ds.Mesh.Cells[ci].Lat > 1.2) {
			t.Fatalf("cell %d: selection wrong", ci)
		}
	}
	// The chain shares the input's field slices but never changes the
	// input: no derived field in its map, no mask.
	if _, err := ds.Field("w_sign"); err == nil || ds.Mask != nil {
		t.Error("Execute changed its input")
	}
}
