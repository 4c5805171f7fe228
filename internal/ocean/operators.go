package ocean

import (
	"fmt"
	"math"

	"insituviz/internal/mesh"
)

// The solver's hot loops read the mesh through compact, solver-private
// operator tables built once by NewModel, not through mesh.Mesh's
// array-of-structs form: a mesh.Edge is 136 B of which the loops read a few
// fields, and every mesh.Cell reaches its edges through slice headers.
// Indices are int32 (NewModel rejects a mesh too large for them). The
// kernels in scratch.go write all Vec3 arithmetic as scalars; DESIGN.md §5
// ("Kernel data layout") gives the rules that keep them bit-identical to
// the Vec3 form.

// edgeOp is what the kernels read of one edge.
type edgeOp struct {
	cells   [2]int32  // adjacent cells; normal points 0 -> 1
	verts   [2]int32  // dual vertices at the ends of the Voronoi face
	tangent mesh.Vec3 // unit tangent, 90 deg CCW from the normal
	dc, dv  float64   // cell-center distance and face length (m)
}

// vertexOp is what the kernels read of one dual vertex.
type vertexOp struct {
	edges [3]int32
	signs [3]int8 // +1 when the edge's normal circulates CCW around the vertex
	area  float64 // dual triangle area (m^2)
}

// operators holds the flat tables. Cell c's entries in the per-cell-edge
// arrays are [cellStart[c], cellStart[c+1]), in the mesh's counterclockwise
// Cells[c].Edges order.
type operators struct {
	cellStart []int32
	cellEdges []int32
	cellSigns []int8 // +1 when the edge's normal points out of the cell
	cellArea  []float64

	// recon reconstructs a cell's tangent velocity from the normal
	// velocities on its edges: V(c) = sum_j recon[j] * u(cellEdges[j]) over
	// c's entries (least-squares pseudo-inverse, one 3-vector per edge).
	recon []mesh.Vec3

	// gradWeights are least-squares gradient weights: the tangent-plane
	// gradient of a cell field F at c is sum_j gradWeights[j] * (F[n_j] -
	// F[c]) over c's entries, where n_j is the cell across cellEdges[j]
	// (mesh Cells[c].Neighbors order), in c's local (east, north) basis.
	// Each weight is a 2-vector (gx, gy).
	gradWeights [][2]float64

	verts []vertexOp
	edges []edgeOp
}

// checkTableSize returns an error when a mesh with these counts does not
// fit the int32-indexed operator tables.
func checkTableSize(nCells, nEdges, nVertices, nCellEdges int) error {
	for _, n := range [...]int{nCells + 1, nEdges, nVertices, nCellEdges} {
		if n > math.MaxInt32 {
			return fmt.Errorf("ocean: mesh too large for int32 operator tables (%d cells, %d edges, %d vertices)",
				nCells, nEdges, nVertices)
		}
	}
	return nil
}

// buildOperators fills the connectivity and metric tables from m. The
// reconstruction and gradient weights are filled afterwards by
// buildReconstruction and buildGradients.
func (md *Model) buildOperators() error {
	m := md.Mesh
	total := 0
	for ci := range m.Cells {
		total += len(m.Cells[ci].Edges)
	}
	if err := checkTableSize(m.NCells(), m.NEdges(), m.NVertices(), total); err != nil {
		return err
	}
	op := &md.ops
	op.cellStart = make([]int32, m.NCells()+1)
	op.cellEdges = make([]int32, total)
	op.cellSigns = make([]int8, total)
	op.cellArea = make([]float64, m.NCells())
	j := 0
	for ci := range m.Cells {
		c := &m.Cells[ci]
		op.cellStart[ci] = int32(j)
		for k, ei := range c.Edges {
			op.cellEdges[j] = int32(ei)
			op.cellSigns[j] = c.EdgeSigns[k]
			j++
		}
		op.cellArea[ci] = c.Area
	}
	op.cellStart[m.NCells()] = int32(j)

	op.verts = make([]vertexOp, m.NVertices())
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		op.verts[vi] = vertexOp{
			edges: [3]int32{int32(v.Edges[0]), int32(v.Edges[1]), int32(v.Edges[2])},
			signs: v.EdgeSigns,
			area:  v.Area,
		}
	}

	op.edges = make([]edgeOp, m.NEdges())
	for ei := range m.Edges {
		e := &m.Edges[ei]
		op.edges[ei] = edgeOp{
			cells:   [2]int32{int32(e.Cells[0]), int32(e.Cells[1])},
			verts:   [2]int32{int32(e.Vertices[0]), int32(e.Vertices[1])},
			tangent: e.Tangent,
			dc:      e.Dc,
			dv:      e.Dv,
		}
	}
	return nil
}
