// Package vizpipe is a small dataflow visualization framework in the
// spirit of ParaView, the framework the paper couples MPAS-O to: datasets
// flow through chains of filters (derived-field calculators, thresholds,
// geographic clips) into sinks (renderers, statistics). The paper's
// visualization task — derive Okubo-Weiss, threshold the rotation-dominated
// cores, render — is exactly such a pipeline, and both the in-situ and the
// post-processing workflows execute the same filter chain, which is what
// makes their outputs scientifically interchangeable.
package vizpipe

import (
	"fmt"
	"math"

	"insituviz/internal/mesh"
)

// Dataset is a snapshot of named cell-centered fields on a mesh, with an
// optional activity mask produced by selection filters. A nil mask means
// every cell is active. Field slices and the mask are read-only once
// attached: a filter's output shares them with its input, the way VTK
// filters pass arrays by reference, and derives new slices for what it
// changes.
type Dataset struct {
	Mesh   *mesh.Mesh
	Time   float64 // simulated seconds
	Fields map[string][]float64
	Mask   []bool
}

// NewDataset builds a dataset over a mesh.
func NewDataset(m *mesh.Mesh, time float64) (*Dataset, error) {
	if m == nil || m.NCells() == 0 {
		return nil, fmt.Errorf("vizpipe: nil or empty mesh")
	}
	return &Dataset{Mesh: m, Time: time, Fields: map[string][]float64{}}, nil
}

// AddField attaches a cell field; the slice is copied.
func (ds *Dataset) AddField(name string, values []float64) error {
	if name == "" {
		return fmt.Errorf("vizpipe: empty field name")
	}
	if len(values) != ds.Mesh.NCells() {
		return fmt.Errorf("vizpipe: field %q has %d values for %d cells", name, len(values), ds.Mesh.NCells())
	}
	ds.Fields[name] = append([]float64(nil), values...)
	return nil
}

// Field returns a named field.
func (ds *Dataset) Field(name string) ([]float64, error) {
	f, ok := ds.Fields[name]
	if !ok {
		return nil, fmt.Errorf("vizpipe: no field %q", name)
	}
	return f, nil
}

// Active reports whether cell ci passes the mask.
func (ds *Dataset) Active(ci int) bool {
	return ds.Mask == nil || ds.Mask[ci]
}

// ActiveCount returns the number of active cells.
func (ds *Dataset) ActiveCount() int {
	if ds.Mask == nil {
		return ds.Mesh.NCells()
	}
	n := 0
	for _, a := range ds.Mask {
		if a {
			n++
		}
	}
	return n
}

// clone returns a copy for a filter to derive its output from: its own
// field map, sharing the read-only field slices and mask.
func (ds *Dataset) clone() *Dataset {
	out := &Dataset{Mesh: ds.Mesh, Time: ds.Time, Mask: ds.Mask,
		Fields: make(map[string][]float64, len(ds.Fields)+1)}
	for k, v := range ds.Fields {
		out.Fields[k] = v
	}
	return out
}

// Filter transforms a dataset. Filters must not mutate their input.
type Filter interface {
	Name() string
	Apply(ds *Dataset) (*Dataset, error)
}

// Pipeline is an ordered filter chain.
type Pipeline struct {
	filters []Filter
}

// Append adds a filter stage.
func (p *Pipeline) Append(f Filter) error {
	if f == nil {
		return fmt.Errorf("vizpipe: nil filter")
	}
	p.filters = append(p.filters, f)
	return nil
}

// Stages returns the number of filter stages.
func (p *Pipeline) Stages() int { return len(p.filters) }

// Execute runs the chain on ds, returning the final dataset. The input is
// never mutated.
func (p *Pipeline) Execute(ds *Dataset) (*Dataset, error) {
	if ds == nil {
		return nil, fmt.Errorf("vizpipe: nil dataset")
	}
	cur := ds.clone()
	for i, f := range p.filters {
		next, err := f.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("vizpipe: stage %d (%s): %w", i, f.Name(), err)
		}
		if next == nil {
			return nil, fmt.Errorf("vizpipe: stage %d (%s) returned nil", i, f.Name())
		}
		cur = next
	}
	return cur, nil
}

// Calculator derives a new field from existing ones, cell by cell — the
// role ParaView's Calculator/derived-quantity filters play (the paper
// derives Okubo-Weiss from the raw simulation state).
type Calculator struct {
	// Output names the derived field.
	Output string
	// Inputs lists the fields the function consumes, in argument order.
	Inputs []string
	// Fn computes the derived value from the input values at one cell.
	Fn func(args []float64) float64
}

// Name implements Filter.
func (c *Calculator) Name() string { return "calculator(" + c.Output + ")" }

// Apply implements Filter.
func (c *Calculator) Apply(ds *Dataset) (*Dataset, error) {
	if c.Output == "" || c.Fn == nil {
		return nil, fmt.Errorf("calculator not configured")
	}
	ins := make([][]float64, len(c.Inputs))
	for i, name := range c.Inputs {
		f, err := ds.Field(name)
		if err != nil {
			return nil, err
		}
		ins[i] = f
	}
	out := ds.clone()
	derived := make([]float64, ds.Mesh.NCells())
	args := make([]float64, len(ins))
	for ci := range derived {
		for k := range ins {
			args[k] = ins[k][ci]
		}
		derived[ci] = c.Fn(args)
	}
	out.Fields[c.Output] = derived
	return out, nil
}

// Threshold masks cells whose field value lies outside [Min, Max] — the
// eddy-core selection W < -0.2*sigma is a Threshold with Max negative.
// It intersects with any existing mask.
type Threshold struct {
	Field    string
	Min, Max float64
}

// Name implements Filter.
func (t *Threshold) Name() string { return "threshold(" + t.Field + ")" }

// Apply implements Filter.
func (t *Threshold) Apply(ds *Dataset) (*Dataset, error) {
	if t.Min > t.Max {
		return nil, fmt.Errorf("threshold range [%g, %g] is empty", t.Min, t.Max)
	}
	f, err := ds.Field(t.Field)
	if err != nil {
		return nil, err
	}
	out := ds.clone()
	mask := make([]bool, len(f))
	for ci, v := range f {
		mask[ci] = v >= t.Min && v <= t.Max && ds.Active(ci)
	}
	out.Mask = mask
	return out, nil
}

// ClipLatBand masks cells outside a latitude band (radians), e.g. to focus
// on the jet's mid-latitudes. It intersects with any existing mask.
type ClipLatBand struct {
	MinLat, MaxLat float64
}

// Name implements Filter.
func (c *ClipLatBand) Name() string { return "clip-lat-band" }

// Apply implements Filter.
func (c *ClipLatBand) Apply(ds *Dataset) (*Dataset, error) {
	if c.MinLat > c.MaxLat {
		return nil, fmt.Errorf("latitude band [%g, %g] is empty", c.MinLat, c.MaxLat)
	}
	out := ds.clone()
	mask := make([]bool, ds.Mesh.NCells())
	for ci := range mask {
		lat := ds.Mesh.Cells[ci].Lat
		mask[ci] = lat >= c.MinLat && lat <= c.MaxLat && ds.Active(ci)
	}
	out.Mask = mask
	return out, nil
}

// FieldStats summarizes an active-cell field: the sink that feeds census
// tables.
type FieldStats struct {
	Count          int
	Min, Max, Mean float64
	ActiveArea     float64 // m^2
}

// Statistics computes area-weighted statistics of a field over the active
// cells.
func Statistics(ds *Dataset, field string) (FieldStats, error) {
	f, err := ds.Field(field)
	if err != nil {
		return FieldStats{}, err
	}
	st := FieldStats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, areaSum float64
	for ci, v := range f {
		if !ds.Active(ci) {
			continue
		}
		st.Count++
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		area := ds.Mesh.Cells[ci].Area
		sum += v * area
		areaSum += area
	}
	if st.Count == 0 {
		return FieldStats{}, fmt.Errorf("vizpipe: no active cells for %q", field)
	}
	st.Mean = sum / areaSum
	st.ActiveArea = areaSum
	return st, nil
}
