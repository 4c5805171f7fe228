package ocean

import (
	"insituviz/internal/mesh"
	"insituviz/internal/workpool"
)

// uvComp is a reconstructed cell velocity expressed in the cell's own local
// (east, north) tangent basis.
type uvComp struct{ u, v float64 }

// stepScratch holds the preallocated stage states, diagnostics buffer, and
// bound loop bodies that make the steady-state Step / diagnostics /
// Okubo-Weiss path allocation-free. Buffers are allocated lazily the first
// time the corresponding method runs and reused for the life of the model.
//
// The loop closures are created once (initLoopBindings) and read their
// operands from the fields below, which the dispatching method sets
// immediately before each parallelFor call. Capturing loop-local variables
// instead would heap-allocate a fresh closure per fan-out — roughly a dozen
// times per RK4 step — because closures handed to the worker pool escape.
// The cost of this shape is that a Model must not be used from multiple
// goroutines at once, which Step's in-place mutation already ruled out.
type stepScratch struct {
	stages [4]*State // RK4 slope states k1..k4
	tmp    *State    // intermediate state the slopes are evaluated at
	diag   *Diagnostics
	owComp []uvComp
	ow     []float64 // OkuboWeiss's owned output buffer

	// pair holds the fused fan-out headers of parallelPair, so building a
	// two-loop fan-out writes two structs instead of allocating a slice.
	pair [2]workpool.Loop

	// Loop operands for the bound closures.
	loopS   *State
	loopOut *State
	loopD   *Diagnostics
	loopOW  []float64

	diagCells  func(lo, hi int)
	diagVerts  func(lo, hi int)
	continuity func(lo, hi int)
	momentum   func(lo, hi int)
	owProject  func(lo, hi int)
	owGradient func(lo, hi int)
}

// ensureStages allocates the RK4 stage and intermediate states on first use.
func (md *Model) ensureStages() {
	if md.sc.tmp != nil {
		return
	}
	m := md.Mesh
	for i := range md.sc.stages {
		md.sc.stages[i] = NewState(m.NCells(), m.NEdges())
	}
	md.sc.tmp = NewState(m.NCells(), m.NEdges())
}

// ensureDiag returns the model's reusable diagnostics buffer, allocating it
// on first use.
func (md *Model) ensureDiag() *Diagnostics {
	if md.sc.diag == nil {
		md.sc.diag = md.NewDiagnostics()
	}
	return md.sc.diag
}

// ensureOkubo allocates the Okubo-Weiss projection scratch and the
// precomputed per-cell tangent bases on first use.
func (md *Model) ensureOkubo() {
	if md.sc.owComp != nil {
		return
	}
	m := md.Mesh
	md.sc.owComp = make([]uvComp, m.NCells())
	md.cellEast = make([]mesh.Vec3, m.NCells())
	md.cellNorth = make([]mesh.Vec3, m.NCells())
	for ci := range m.Cells {
		md.cellEast[ci], md.cellNorth[ci] = mesh.TangentBasis(m.Cells[ci].Center)
	}
}

// initLoopBindings creates the bound loop bodies. Called once from
// NewModel, after the operator tables are built.
//
// The bodies read the flat tables (operators.go) and write every mesh.Vec3
// operation as scalars: Vec3 is an array, and the compiler keeps arrays of
// more than one element in memory, so each Add/Scale/Dot would round-trip
// through the stack. Each scalar expression keeps the operand order of the
// Vec3 method it replaces, and a product that was stored into a Vec3 is
// wrapped in float64(...), which the spec says rounds it and so prevents
// fusion into a multiply-add: results are bit-identical to the Vec3 form
// (reference_test.go).
func (md *Model) initLoopBindings() {
	// Diagnostics: divergence, kinetic energy, and reconstructed velocity
	// at cells.
	md.sc.diagCells = func(lo, hi int) {
		op, s, d := &md.ops, md.sc.loopS, md.sc.loopD
		edges, un := op.edges, s.NormalVelocity
		for ci := lo; ci < hi; ci++ {
			j0, j1 := op.cellStart[ci], op.cellStart[ci+1]
			ce := op.cellEdges[j0:j1]
			sg := op.cellSigns[j0:j1]
			rc := op.recon[j0:j1]
			// Same lengths; reslicing to len(ce) drops the bounds checks.
			sg, rc = sg[:len(ce)], rc[:len(ce)]
			var div, ke, vx, vy, vz float64
			for k, ei := range ce {
				e := &edges[ei]
				u := un[ei]
				div += float64(sg[k]) * u * e.dv
				ke += e.dc * e.dv * 0.25 * u * u
				r := &rc[k]
				vx += float64(u * r[0])
				vy += float64(u * r[1])
				vz += float64(u * r[2])
			}
			area := op.cellArea[ci]
			d.Divergence[ci] = div / area
			d.KineticEnergy[ci] = ke / area
			d.CellVelocity[ci] = mesh.Vec3{vx, vy, vz}
		}
	}

	// Diagnostics: relative vorticity at dual vertices.
	md.sc.diagVerts = func(lo, hi int) {
		op, s, d := &md.ops, md.sc.loopS, md.sc.loopD
		edges, un := op.edges, s.NormalVelocity
		for vi := lo; vi < hi; vi++ {
			v := &op.verts[vi]
			var circ float64
			for k, ei := range v.edges {
				circ += float64(v.signs[k]) * un[ei] * edges[ei].dc
			}
			d.Vorticity[vi] = circ / v.area
		}
	}

	// Continuity equation: dh/dt = -div(h u).
	md.sc.continuity = func(lo, hi int) {
		op, s, out := &md.ops, md.sc.loopS, md.sc.loopOut
		edges, un, h := op.edges, s.NormalVelocity, s.Thickness
		for ci := lo; ci < hi; ci++ {
			j0, j1 := op.cellStart[ci], op.cellStart[ci+1]
			ce := op.cellEdges[j0:j1]
			sg := op.cellSigns[j0:j1]
			sg = sg[:len(ce)]
			var flux float64
			for k, ei := range ce {
				e := &edges[ei]
				he := 0.5 * (h[e.cells[0]] + h[e.cells[1]])
				flux += float64(sg[k]) * un[ei] * he * e.dv
			}
			out.Thickness[ci] = -flux / op.cellArea[ci]
		}
	}

	// Momentum equation: du/dt = q u_perp - grad_n(K + g h) + nu del2(u).
	md.sc.momentum = func(lo, hi int) {
		s, out, d := md.sc.loopS, md.sc.loopOut, md.sc.loopD
		edges, un, h := md.ops.edges, s.NormalVelocity, s.Thickness
		vort, ke, div, cv := d.Vorticity, d.KineticEnergy, d.Divergence, d.CellVelocity
		for ei := lo; ei < hi; ei++ {
			e := &edges[ei]
			c0, c1 := e.cells[0], e.cells[1]
			v0, v1 := e.verts[0], e.verts[1]

			// Absolute vorticity at the edge.
			zeta := 0.5 * (vort[v0] + vort[v1])
			q := md.coriolisEdge[ei] + zeta

			// Tangential velocity from the averaged cell reconstructions.
			cv0, cv1 := &cv[c0], &cv[c1]
			vbx := float64(0.5 * (cv0[0] + cv1[0]))
			vby := float64(0.5 * (cv0[1] + cv1[1]))
			vbz := float64(0.5 * (cv0[2] + cv1[2]))
			uperp := vbx*e.tangent[0] + vby*e.tangent[1] + vbz*e.tangent[2]

			// Bernoulli gradient along the normal; with topography the
			// pressure term uses the free-surface height h+b.
			eta0, eta1 := h[c0], h[c1]
			if md.topography != nil {
				eta0 += md.topography[c0]
				eta1 += md.topography[c1]
			}
			bern0 := ke[c0] + Gravity*eta0
			bern1 := ke[c1] + Gravity*eta1
			grad := (bern1 - bern0) / e.dc

			tend := q*uperp - grad
			if md.windAccel != nil {
				tend += md.windAccel[ei]
			}
			if md.bottomDrag > 0 {
				tend -= md.bottomDrag * un[ei]
			}

			if md.Viscosity > 0 {
				// del2(u) = grad_n(div) - grad_t(zeta).
				lap := (div[c1]-div[c0])/e.dc -
					md.vertexTangentSign[ei]*(vort[v1]-vort[v0])/e.dv
				tend += md.Viscosity * lap
			}
			out.NormalVelocity[ei] = tend
		}
	}

	// Okubo-Weiss phase 1: each cell's reconstructed velocity in its own
	// local basis.
	md.sc.owProject = func(lo, hi int) {
		cv := md.sc.loopD.CellVelocity
		for ci := lo; ci < hi; ci++ {
			vel, east, north := &cv[ci], &md.cellEast[ci], &md.cellNorth[ci]
			md.sc.owComp[ci] = uvComp{
				u: vel[0]*east[0] + vel[1]*east[1] + vel[2]*east[2],
				v: vel[0]*north[0] + vel[1]*north[1] + vel[2]*north[2],
			}
		}
	}

	// Okubo-Weiss phase 2: least-squares velocity gradients and
	// W = s_n^2 + s_s^2 - omega^2.
	md.sc.owGradient = func(lo, hi int) {
		op, cv, w := &md.ops, md.sc.loopD.CellVelocity, md.sc.loopOW
		edges, comp := op.edges, md.sc.owComp
		for ci := lo; ci < hi; ci++ {
			j0, j1 := op.cellStart[ci], op.cellStart[ci+1]
			ce := op.cellEdges[j0:j1]
			gws := op.gradWeights[j0:j1]
			gws = gws[:len(ce)]
			east, north := &md.cellEast[ci], &md.cellNorth[ci]
			ex, ey, ez := east[0], east[1], east[2]
			nx, ny, nz := north[0], north[1], north[2]
			// Express the center and neighbor velocities in the center
			// cell's basis; for neighbors the 3D tangent vector is
			// projected, which is accurate to O(spacing/R).
			u0 := comp[ci].u
			v0 := comp[ci].v
			var ux, uy, vx, vy float64
			for k, ei := range ce {
				// The neighbor is the edge's other cell.
				e := &edges[ei]
				vel := &cv[e.cells[0]+e.cells[1]-int32(ci)]
				du := vel[0]*ex + vel[1]*ey + vel[2]*ez - u0
				dv := vel[0]*nx + vel[1]*ny + vel[2]*nz - v0
				gw := &gws[k]
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
	}
}
