package ocean

import (
	"fmt"
	"math"
	"testing"

	"insituviz/internal/mesh"
)

// refModel is the reference formulation of the solver's loops: the
// array-of-structs bodies that walk mesh.Cells/Edges/Vertices and do their
// vector math through mesh.Vec3 methods, run serially. The kernels in
// scratch.go read flat operator tables and scalar arithmetic instead and
// must reproduce these bodies bit for bit.
type refModel struct {
	md *Model
	// recon[c][k] and gradWeights[c][k] belong to Cells[c].Edges[k] and
	// Cells[c].Neighbors[k]; they are views of the model's flat tables,
	// sliced by the mesh's own per-cell counts.
	recon       [][]mesh.Vec3
	gradWeights [][][2]float64
}

func newRefModel(md *Model) *refModel {
	m := md.Mesh
	r := &refModel{md: md, recon: make([][]mesh.Vec3, m.NCells()), gradWeights: make([][][2]float64, m.NCells())}
	j := 0
	for ci := range m.Cells {
		n := len(m.Cells[ci].Edges)
		r.recon[ci] = md.ops.recon[j : j+n]
		r.gradWeights[ci] = md.ops.gradWeights[j : j+n]
		j += n
	}
	return r
}

func (r *refModel) diagnostics(s *State) *Diagnostics {
	md, m := r.md, r.md.Mesh
	d := md.NewDiagnostics()
	for ci := range m.Cells {
		c := &m.Cells[ci]
		var div, ke float64
		var vel mesh.Vec3
		for k, ei := range c.Edges {
			e := &m.Edges[ei]
			u := s.NormalVelocity[ei]
			div += float64(c.EdgeSigns[k]) * u * e.Dv
			ke += e.Dc * e.Dv * 0.25 * u * u
			vel = vel.Add(r.recon[ci][k].Scale(u))
		}
		d.Divergence[ci] = div / c.Area
		d.KineticEnergy[ci] = ke / c.Area
		d.CellVelocity[ci] = vel
	}
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		var circ float64
		for k, ei := range v.Edges {
			circ += float64(v.EdgeSigns[k]) * s.NormalVelocity[ei] * m.Edges[ei].Dc
		}
		d.Vorticity[vi] = circ / v.Area
	}
	return d
}

func (r *refModel) tendency(s *State, out *State) {
	md, m := r.md, r.md.Mesh
	d := r.diagnostics(s)
	for ci := range m.Cells {
		c := &m.Cells[ci]
		var flux float64
		for k, ei := range c.Edges {
			e := &m.Edges[ei]
			he := 0.5 * (s.Thickness[e.Cells[0]] + s.Thickness[e.Cells[1]])
			flux += float64(c.EdgeSigns[k]) * s.NormalVelocity[ei] * he * e.Dv
		}
		out.Thickness[ci] = -flux / c.Area
	}
	for ei := range m.Edges {
		e := &m.Edges[ei]
		c0, c1 := e.Cells[0], e.Cells[1]
		v0, v1 := e.Vertices[0], e.Vertices[1]

		zeta := 0.5 * (d.Vorticity[v0] + d.Vorticity[v1])
		q := md.coriolisEdge[ei] + zeta

		vbar := d.CellVelocity[c0].Add(d.CellVelocity[c1]).Scale(0.5)
		uperp := vbar.Dot(e.Tangent)

		eta0, eta1 := s.Thickness[c0], s.Thickness[c1]
		if md.topography != nil {
			eta0 += md.topography[c0]
			eta1 += md.topography[c1]
		}
		bern0 := d.KineticEnergy[c0] + Gravity*eta0
		bern1 := d.KineticEnergy[c1] + Gravity*eta1
		grad := (bern1 - bern0) / e.Dc

		tend := q*uperp - grad
		if md.windAccel != nil {
			tend += md.windAccel[ei]
		}
		if md.bottomDrag > 0 {
			tend -= md.bottomDrag * s.NormalVelocity[ei]
		}

		if md.Viscosity > 0 {
			lap := (d.Divergence[c1]-d.Divergence[c0])/e.Dc -
				md.vertexTangentSign[ei]*(d.Vorticity[v1]-d.Vorticity[v0])/e.Dv
			tend += md.Viscosity * lap
		}
		out.NormalVelocity[ei] = tend
	}
}

func (r *refModel) okuboWeiss(d *Diagnostics) []float64 {
	m := r.md.Mesh
	east := make([]mesh.Vec3, m.NCells())
	north := make([]mesh.Vec3, m.NCells())
	comp := make([]uvComp, m.NCells())
	for ci := range m.Cells {
		east[ci], north[ci] = mesh.TangentBasis(m.Cells[ci].Center)
		vel := d.CellVelocity[ci]
		comp[ci] = uvComp{u: vel.Dot(east[ci]), v: vel.Dot(north[ci])}
	}
	w := make([]float64, m.NCells())
	for ci := range m.Cells {
		c := &m.Cells[ci]
		u0 := comp[ci].u
		v0 := comp[ci].v
		var ux, uy, vx, vy float64
		for k, nb := range c.Neighbors {
			vel := d.CellVelocity[nb]
			du := vel.Dot(east[ci]) - u0
			dv := vel.Dot(north[ci]) - v0
			gw := r.gradWeights[ci][k]
			ux += gw[0] * du
			uy += gw[1] * du
			vx += gw[0] * dv
			vy += gw[1] * dv
		}
		sn := ux - vy
		ss := vx + uy
		om := vx - uy
		w[ci] = sn*sn + ss*ss - om*om
	}
	return w
}

// step is Model.Step over the reference tendency.
func (r *refModel) step(s *State, dt float64) {
	m := r.md.Mesh
	k := [4]*State{}
	for i := range k {
		k[i] = NewState(m.NCells(), m.NEdges())
	}
	tmp := NewState(m.NCells(), m.NEdges())
	r.tendency(s, k[0])
	for i, w := range []float64{dt / 2, dt / 2, dt} {
		mustNil(tmp.CopyFrom(s))
		mustNil(tmp.AddScaled(k[i], w))
		r.tendency(tmp, k[i+1])
	}
	for i, w := range []float64{dt / 6, dt / 3, dt / 3, dt / 6} {
		mustNil(s.AddScaled(k[i], w))
	}
}

func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}

// sameBits reports the first index where got and want differ in bit
// pattern (so -0 vs +0 and NaN payloads count), or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func vecBits(vs []mesh.Vec3) []float64 {
	out := make([]float64, 0, 3*len(vs))
	for _, v := range vs {
		out = append(out, v[0], v[1], v[2])
	}
	return out
}

// refFields is every output the equivalence test compares.
type refFields struct {
	tendency    *State
	diag        *Diagnostics
	ow          []float64
	stepped     *State
	steppedDiag *Diagnostics
	steppedOW   []float64
}

func (f *refFields) compare(t *testing.T, label string, got *refFields) {
	t.Helper()
	pairs := []struct {
		name      string
		got, want []float64
	}{
		{"Tendency.Thickness", got.tendency.Thickness, f.tendency.Thickness},
		{"Tendency.NormalVelocity", got.tendency.NormalVelocity, f.tendency.NormalVelocity},
		{"Divergence", got.diag.Divergence, f.diag.Divergence},
		{"Vorticity", got.diag.Vorticity, f.diag.Vorticity},
		{"KineticEnergy", got.diag.KineticEnergy, f.diag.KineticEnergy},
		{"CellVelocity", vecBits(got.diag.CellVelocity), vecBits(f.diag.CellVelocity)},
		{"OkuboWeissInto", got.ow, f.ow},
		{"stepped Thickness", got.stepped.Thickness, f.stepped.Thickness},
		{"stepped NormalVelocity", got.stepped.NormalVelocity, f.stepped.NormalVelocity},
		{"stepped Divergence", got.steppedDiag.Divergence, f.steppedDiag.Divergence},
		{"stepped Vorticity", got.steppedDiag.Vorticity, f.steppedDiag.Vorticity},
		{"stepped KineticEnergy", got.steppedDiag.KineticEnergy, f.steppedDiag.KineticEnergy},
		{"stepped CellVelocity", vecBits(got.steppedDiag.CellVelocity), vecBits(f.steppedDiag.CellVelocity)},
		{"stepped OkuboWeissInto", got.steppedOW, f.steppedOW},
	}
	for _, p := range pairs {
		if i := sameBits(p.got, p.want); i >= 0 {
			if len(p.got) != len(p.want) {
				t.Errorf("%s: %s has %d values, reference %d", label, p.name, len(p.got), len(p.want))
				continue
			}
			t.Errorf("%s: %s differs from the reference at %d: %v vs %v", label, p.name, i, p.got[i], p.want[i])
		}
	}
}

const refSteps = 30

// TestKernelsMatchReference pins the flat-table kernels to the reference
// formulation bitwise: Tendency, every Diagnostics field, OkuboWeissInto,
// and 30 RK4 steps, at subdivisions 2-5, serial and pooled, with and
// without topography, wind forcing, and bottom drag.
func TestKernelsMatchReference(t *testing.T) {
	forcings := []struct {
		name  string
		apply func(*Model) error
	}{
		{"unforced", func(*Model) error { return nil }},
		{"forced", func(md *Model) error {
			b, err := RidgeTopography(md, 0.4, 1.2, 0.25, 3000)
			if err != nil {
				return err
			}
			if err := md.SetTopography(b); err != nil {
				return err
			}
			md.SetZonalWind(TradeWindProfile(2e-7))
			return md.SetBottomDrag(1e-6)
		}},
	}
	for subdiv := 2; subdiv <= 5; subdiv++ {
		m, err := mesh.NewIcosphere(subdiv, mesh.EarthRadius)
		if err != nil {
			t.Fatal(err)
		}
		for _, fc := range forcings {
			build := func(workers int) *Model {
				md, err := NewModel(m, Config{Viscosity: 1e5, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := fc.apply(md); err != nil {
					t.Fatal(err)
				}
				return md
			}
			ref := newRefModel(build(-1))
			s0, err := UnstableJet(ref.md, DefaultGalewsky())
			if err != nil {
				t.Fatal(err)
			}
			dt := ref.md.SuggestedTimestep(10000)

			want := &refFields{tendency: NewState(m.NCells(), m.NEdges()), stepped: s0.Clone()}
			ref.tendency(s0, want.tendency)
			want.diag = ref.diagnostics(s0)
			want.ow = ref.okuboWeiss(want.diag)
			for i := 0; i < refSteps; i++ {
				ref.step(want.stepped, dt)
			}
			if err := want.stepped.CheckFinite(); err != nil {
				t.Fatalf("subdivisions=%d %s: reference run blew up: %v", subdiv, fc.name, err)
			}
			want.steppedDiag = ref.diagnostics(want.stepped)
			want.steppedOW = ref.okuboWeiss(want.steppedDiag)

			for _, workers := range []int{-1, 1, 2, 4} {
				md := build(workers)
				got := &refFields{tendency: NewState(m.NCells(), m.NEdges()), stepped: s0.Clone(),
					diag: md.NewDiagnostics(), steppedDiag: md.NewDiagnostics(),
					ow: make([]float64, m.NCells()), steppedOW: make([]float64, m.NCells())}
				if err := md.Tendency(s0, got.tendency); err != nil {
					t.Fatal(err)
				}
				if err := md.ComputeDiagnosticsInto(s0, got.diag); err != nil {
					t.Fatal(err)
				}
				if err := md.OkuboWeissInto(s0, got.ow); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < refSteps; i++ {
					if err := md.Step(got.stepped, dt); err != nil {
						t.Fatal(err)
					}
				}
				if err := md.ComputeDiagnosticsInto(got.stepped, got.steppedDiag); err != nil {
					t.Fatal(err)
				}
				if err := md.OkuboWeissInto(got.stepped, got.steppedOW); err != nil {
					t.Fatal(err)
				}
				want.compare(t, fmt.Sprintf("subdivisions=%d %s workers=%d", subdiv, fc.name, workers), got)
			}
		}
	}
}

func TestCheckTableSizeInt32Limits(t *testing.T) {
	if err := checkTableSize(10242, 30720, 20480, 61440); err != nil {
		t.Errorf("10242-cell mesh rejected: %v", err)
	}
	huge := math.MaxInt32 + 1
	for _, c := range [][4]int{
		{huge, 1, 1, 1},
		{math.MaxInt32, 1, 1, 1}, // cellStart has NCells+1 entries
		{1, huge, 1, 1},
		{1, 1, huge, 1},
		{1, 1, 1, huge},
	} {
		if err := checkTableSize(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("checkTableSize%v = nil, want an error", c)
		}
	}
}
