package main

import (
	"fmt"
	"image"
	"math"
	"os"
	"path/filepath"

	"insituviz"
	"insituviz/internal/catalyst"
	"insituviz/internal/cinemastore"
	"insituviz/internal/eddy"
	"insituviz/internal/intransit"
	"insituviz/internal/mesh"
	"insituviz/internal/ncfile"
	"insituviz/internal/ocean"
	"insituviz/internal/partition"
	"insituviz/internal/pio"
	"insituviz/internal/render"
	"insituviz/internal/telemetry"
	"insituviz/internal/vizpipe"
	"insituviz/internal/workpool"
)

// driverResult is what a traced driver run leaves for the per-layer
// metrics beyond its spans.
type driverResult struct {
	mesh        *mesh.Mesh
	state       *ocean.State
	dt          float64
	pool        workpool.Stats
	copied      int64 // catalyst deep-copy volume
	eddies      int
	frames      int
	pngBytes    int64
	wireBytes   int64
	rawBytes    int64 // float64 field volume the in-transit shards stand for
	ncBytes     int64
	reconnects  int64
	cinemaFiles int
}

// runDriver makes the public calls insituviz.LiveRun makes, in the same
// order, for the fault-free, model-free configurations the live workloads
// use, and wraps each call in a span. Two departures keep the layers
// apart without changing the output: render.CinemaDB.AddImageAt is made
// as its two calls, PNGEncoder.Encode and cinemastore.Writer.Put, and the
// encoder runs inline rather than behind render.PipelinedCinemaWriter's
// goroutine, so encode and put each get their own span. Frames are
// stored in the same order, so the committed index is byte-identical to
// LiveRun's; the live workloads check that on every traced run.
func runDriver(cfg insituviz.LiveConfig, tr *tracer) (*driverResult, error) {
	if err := os.MkdirAll(cfg.OutputDir, 0o755); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	res := &driverResult{}
	wp0 := workpool.Snapshot()
	root := tr.begin("live.run", 0, -1)
	defer tr.end(root)

	stk, err := newLiveStack(cfg, reg, tr, root)
	if err != nil {
		return nil, err
	}
	msh, model, state, dt := stk.mesh, stk.model, stk.state, stk.dt
	rast, part, setRenderer, viewCams := stk.rast, stk.part, stk.setRenderer, stk.viewCams
	res.mesh, res.state, res.dt = msh, state, dt
	masks := part.Masks()
	store, err := cinemastore.Create(filepath.Join(cfg.OutputDir, "cinema"))
	if err != nil {
		return nil, err
	}
	tracker, err := eddy.NewTracker(msh.Radius, 2e6)
	if err != nil {
		return nil, err
	}

	var tc *intransit.Client
	if cfg.Transport == "tcp" {
		cells := make([][]int, len(masks))
		for r := range cells {
			if cells[r], err = part.Cells(r); err != nil {
				return nil, err
			}
		}
		err = tr.call("intransit.dial", root, func() (err error) {
			tc, err = intransit.Dial(intransit.Options{
				Workers: cfg.VizWorkers,
				Codec:   cfg.TransitCodec,
				Config: intransit.RunConfig{
					MeshSubdivisions: cfg.MeshSubdivisions,
					ImageWidth:       cfg.ImageWidth,
					ImageHeight:      cfg.ImageHeight,
					RenderRanks:      cfg.RenderRanks,
					OrthoViews:       cfg.OrthoViews,
					EddyCoreImages:   cfg.EddyCoreImages,
					Fields:           []string{"okubo_weiss"},
				},
				Mesh:      msh,
				Cells:     cells,
				Telemetry: reg,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		defer tc.Close()
	}

	partials := make([]*image.RGBA, len(masks))
	for i := range partials {
		partials[i] = rast.NewFrame()
	}
	composited := rast.NewFrame()
	var coreFrame *image.RGBA
	var enc render.PNGEncoder

	// put is render.CinemaDB.AddImageAt split into its two calls.
	put := func(img image.Image, simTime, phi, theta float64, field string, parent, op int) error {
		id := tr.begin("render.encode", parent, op)
		data, err := enc.Encode(img)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("cinemastore.put", parent, op)
		e, err := store.Put(cinemastore.Key{Time: simTime, Phi: phi, Theta: theta, Variable: field}, data)
		tr.end(id)
		if err != nil {
			return err
		}
		res.frames++
		res.pngBytes += e.Bytes
		return nil
	}

	detect := func(field, cellVort []float64, parent, op int) ([]eddy.Eddy, float64, error) {
		id := tr.begin("eddy.detect", parent, op)
		defer tr.end(id)
		th := ocean.OkuboWeissThreshold(field)
		var eddies []eddy.Eddy
		var err error
		if th < 0 {
			if eddies, err = eddy.Detect(msh, field, th, 2); err != nil {
				return nil, 0, err
			}
		}
		if cellVort != nil {
			for i := range eddies {
				if _, err := eddy.ClassifySpin(msh, eddies[i], cellVort); err != nil {
					return nil, 0, err
				}
			}
		}
		res.eddies += len(eddies)
		return eddies, th, nil
	}

	track := func(simTime float64, eddies []eddy.Eddy, parent, op int) error {
		id := tr.begin("eddy.track", parent, op)
		defer tr.end(id)
		return tracker.Advance(simTime, eddies)
	}

	visualize := func(simTime float64, field, cellVort []float64, parent, op int) error {
		sid := tr.begin("live.sample", parent, op)
		defer tr.end(sid)
		if tc != nil {
			id := tr.begin("intransit.send", sid, op)
			sres, err := tc.SendSample(simTime, field)
			tr.end(id)
			if err != nil {
				return err
			}
			res.wireBytes += sres.WireBytes
			res.rawBytes += sres.RawBytes
			id = tr.begin("cinemastore.adopt", sid, op)
			for _, e := range sres.Entries {
				if err = store.Adopt(e); err != nil {
					break
				}
				res.frames++
				res.pngBytes += e.Bytes
			}
			tr.end(id)
			if err != nil {
				return err
			}
			eddies, _, err := detect(field, cellVort, sid, op)
			if err != nil {
				return err
			}
			return track(simTime, eddies, sid, op)
		}
		norm := render.SymmetricRange(field)
		cm := render.OkuboWeissMap()
		for i, mask := range masks {
			id := tr.begin("render.raster", sid, op)
			err := rast.RenderOwnedInto(partials[i], field, cm, norm, mask)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id := tr.begin("render.composite", sid, op)
		err := render.CompositeInto(composited, partials)
		tr.end(id)
		if err != nil {
			return err
		}
		if !render.FullyOpaque(composited) {
			return fmt.Errorf("composited image has holes")
		}
		if err := put(composited, simTime, 0, 0, "okubo_weiss", sid, op); err != nil {
			return err
		}
		if setRenderer != nil {
			id := tr.begin("render.ortho", sid, op)
			views, err := setRenderer.RenderFrames(field, cm, norm)
			tr.end(id)
			if err != nil {
				return err
			}
			for v, img := range views {
				if err := put(img, simTime, viewCams[v].Lon, viewCams[v].Lat,
					fmt.Sprintf("okubo_weiss_view%d", v), sid, op); err != nil {
					return err
				}
			}
		}
		eddies, th, err := detect(field, cellVort, sid, op)
		if err != nil {
			return err
		}
		if cfg.EddyCoreImages && th < 0 {
			id := tr.begin("vizpipe.execute", sid, op)
			sel, err := eddyCores(msh, simTime, field, th)
			tr.end(id)
			if err != nil {
				return err
			}
			if coreFrame == nil {
				coreFrame = rast.NewFrame()
			}
			id = tr.begin("render.raster", sid, op)
			err = rast.RenderOwnedInto(coreFrame, field, cm, norm, sel.Mask)
			tr.end(id)
			if err != nil {
				return err
			}
			render.FillTransparent(coreFrame, render.Background)
			if err := put(coreFrame, simTime, 0, 0, "okubo_weiss_cores", sid, op); err != nil {
				return err
			}
		}
		return track(simTime, eddies, sid, op)
	}

	switch cfg.Mode {
	case insituviz.InSitu:
		err = driveInSitu(cfg, model, state, dt, reg, tr, root, res, visualize)
	case insituviz.PostProcessing:
		err = drivePost(cfg, msh, model, state, dt, tr, root, res, visualize)
	default:
		err = fmt.Errorf("unsupported mode %v", cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	err = tr.call("cinemastore.commit", root, func() error {
		_, err := store.Commit()
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := store.CloseLedger(); err != nil {
		return nil, err
	}
	tracker.Finish()
	res.pool = workpool.Snapshot().Sub(wp0)
	res.reconnects = reg.Snapshot().Counters["transit.reconnects"]
	files, err := os.ReadDir(store.Dir())
	if err != nil {
		return nil, err
	}
	res.cinemaFiles = len(files)
	return res, nil
}

// liveStack is the solver and renderer set-up LiveRun performs before
// its first step.
type liveStack struct {
	mesh        *mesh.Mesh
	model       *ocean.Model
	state       *ocean.State
	dt          float64
	rast        *render.Rasterizer
	part        *partition.Partition
	setRenderer *render.ImageSetRenderer
	viewCams    []render.Camera
}

// newLiveStack makes LiveRun's set-up calls — mesh, model and initial
// state, rasterizer, render partition, and the ortho image-set renderer —
// under spans of parent (a nil tracer records nothing).
func newLiveStack(cfg insituviz.LiveConfig, reg *telemetry.Registry, tr *tracer, parent int) (*liveStack, error) {
	stk := &liveStack{}
	err := tr.call("mesh.build", parent, func() (err error) {
		stk.mesh, err = mesh.NewIcosphere(cfg.MeshSubdivisions, mesh.EarthRadius)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.call("ocean.init", parent, func() (err error) {
		stk.model, err = ocean.NewModel(stk.mesh, ocean.Config{Viscosity: cfg.Viscosity, Workers: cfg.Workers, Telemetry: reg})
		if err != nil {
			return err
		}
		stk.state, err = ocean.UnstableJet(stk.model, ocean.DefaultGalewsky())
		return err
	})
	if err != nil {
		return nil, err
	}
	stk.dt = stk.model.SuggestedTimestep(10000) // the jet scenario's mean depth
	err = tr.call("render.init", parent, func() (err error) {
		if stk.rast, err = render.NewRasterizer(stk.mesh, cfg.ImageWidth, cfg.ImageHeight); err != nil {
			return err
		}
		stk.rast.SetWorkers(cfg.RenderWorkers)
		if stk.part, err = partition.New(stk.mesh, cfg.RenderRanks); err != nil {
			return err
		}
		if cfg.OrthoViews > 0 {
			rig := render.DefaultCameraSet()
			if cfg.OrthoViews < len(rig) {
				rig = rig[:cfg.OrthoViews]
			}
			stk.viewCams = rig
			if stk.setRenderer, err = render.NewImageSetRenderer(stk.mesh, cfg.ImageHeight, cfg.ImageHeight, rig); err != nil {
				return err
			}
			stk.setRenderer.SetWorkers(cfg.RenderWorkers)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stk, nil
}

// eddyCores is LiveRun's eddy-core selection: a vizpipe threshold of the
// rotation-dominated tail of the Okubo-Weiss field.
func eddyCores(msh *mesh.Mesh, simTime float64, field []float64, th float64) (*vizpipe.Dataset, error) {
	ds, err := vizpipe.NewDataset(msh, simTime)
	if err != nil {
		return nil, err
	}
	if err := ds.AddField("okubo_weiss", field); err != nil {
		return nil, err
	}
	chain := &vizpipe.Pipeline{}
	if err := chain.Append(&vizpipe.Threshold{Field: "okubo_weiss", Min: math.Inf(-1), Max: th}); err != nil {
		return nil, err
	}
	return chain.Execute(ds)
}

type visualizeFunc func(simTime float64, field, cellVort []float64, parent, op int) error

// driveInSitu is LiveRun's in-situ loop: step the solver, and at each
// sampling step derive Okubo-Weiss and cell vorticity from one
// diagnostics evaluation and co-process through a Catalyst adaptor.
func driveInSitu(cfg insituviz.LiveConfig, model *ocean.Model, state *ocean.State, dt float64,
	reg *telemetry.Registry, tr *tracer, root int, res *driverResult, visualize visualizeFunc) error {
	adaptor, err := catalyst.NewAdaptor(cfg.SampleEverySteps)
	if err != nil {
		return err
	}
	adaptor.SetReuse(true)
	adaptor.SetTelemetry(reg)
	diag := model.NewDiagnostics()
	owBuf := make([]float64, model.Mesh.NCells())
	cvBuf := make([]float64, model.Mesh.NCells())
	var cellVort []float64
	parent, op := root, -1 // the co-processing span and sample the pipeline runs under
	if err := adaptor.AddPipeline(catalyst.PipelineFunc(func(fd *catalyst.FieldData) error {
		return visualize(fd.Time, fd.Values, cellVort, parent, op)
	})); err != nil {
		return err
	}
	for step := 1; step <= cfg.Steps; step++ {
		id := tr.begin("ocean.step", root, -1)
		err := model.Step(state, dt)
		tr.end(id)
		if err != nil {
			return err
		}
		if err := state.CheckFinite(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if !adaptor.ShouldProcess(step) {
			continue
		}
		op = tr.op()
		id = tr.begin("ocean.diag", root, op)
		err = model.ComputeDiagnosticsInto(state, diag)
		if err == nil {
			model.OkuboWeissFrom(diag, owBuf)
			cellVort = model.CellVorticityFrom(diag, cvBuf)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		parent = tr.begin("catalyst.coprocess", root, op)
		_, err = adaptor.CoProcess(step, float64(step)*dt, "okubo_weiss", owBuf)
		tr.end(parent)
		if err != nil {
			return err
		}
	}
	res.copied = int64(adaptor.BytesCopied())
	return nil
}

// drivePost is LiveRun's post-processing loop: step the solver, gather
// each sampled Okubo-Weiss field through PIO and write it as netCDF, then
// read every dump back and visualize it.
func drivePost(cfg insituviz.LiveConfig, msh *mesh.Mesh, model *ocean.Model, state *ocean.State, dt float64,
	tr *tracer, root int, res *driverResult, visualize visualizeFunc) error {
	rawDir := filepath.Join(cfg.OutputDir, "raw")
	if err := os.MkdirAll(rawDir, 0o755); err != nil {
		return err
	}
	ioRanks := min(cfg.IORanks, msh.NCells())
	dec, err := pio.NewDecomposition(msh.NCells(), ioRanks)
	if err != nil {
		return err
	}
	plan, err := pio.NewPlan(dec, max(ioRanks/4, 1))
	if err != nil {
		return err
	}
	var dumps []string
	var times []float64
	ow := make([]float64, msh.NCells())
	for step := 1; step <= cfg.Steps; step++ {
		id := tr.begin("ocean.step", root, -1)
		err := model.Step(state, dt)
		tr.end(id)
		if err != nil {
			return err
		}
		if err := state.CheckFinite(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if step%cfg.SampleEverySteps != 0 {
			continue
		}
		op := tr.op()
		simTime := float64(step) * dt
		id = tr.begin("ocean.diag", root, op)
		err = model.OkuboWeissInto(state, ow)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("pio.gather", root, op)
		parts, err := dec.Scatter(ow)
		var gathered []float64
		if err == nil {
			gathered, _, err = plan.Gather(parts, 8)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		path := filepath.Join(rawDir, fmt.Sprintf("output_%05d.nc", step))
		id = tr.begin("ncfile.write", root, op)
		n, err := writeDump(path, msh, simTime, gathered)
		tr.end(id)
		if err != nil {
			return err
		}
		res.ncBytes += n
		dumps = append(dumps, path)
		times = append(times, simTime)
	}
	for i, path := range dumps {
		op := tr.op()
		id := tr.begin("ncfile.read", root, op)
		f, err := ncfile.ReadFile(path)
		var field []float64
		if err == nil {
			field, err = dumpField(f)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		if err := visualize(times[i], field, nil, root, op); err != nil {
			return err
		}
	}
	return nil
}

// dumpField returns the Okubo-Weiss variable of a dump.
func dumpField(f *ncfile.File) ([]float64, error) {
	id, err := f.VarID("okuboWeiss")
	if err != nil {
		return nil, err
	}
	return f.Data(id)
}

// writeDump writes one Okubo-Weiss dump exactly as LiveRun's
// post-processing path does: the field plus cell coordinates as classic
// netCDF.
func writeDump(path string, msh *mesh.Mesh, simTime float64, ow []float64) (int64, error) {
	f := ncfile.New()
	cellDim, err := f.AddDimension("nCells", msh.NCells())
	if err != nil {
		return 0, err
	}
	if err := f.AddGlobalAttribute(ncfile.TextAttribute("title", "insituviz Okubo-Weiss dump")); err != nil {
		return 0, err
	}
	if err := f.AddGlobalAttribute(ncfile.NumericAttribute("sim_time_seconds", ncfile.Double, simTime)); err != nil {
		return 0, err
	}
	latID, err := f.AddVariable("latCell", ncfile.Double, []int{cellDim})
	if err != nil {
		return 0, err
	}
	lonID, err := f.AddVariable("lonCell", ncfile.Double, []int{cellDim})
	if err != nil {
		return 0, err
	}
	owID, err := f.AddVariable("okuboWeiss", ncfile.Double, []int{cellDim})
	if err != nil {
		return 0, err
	}
	if err := f.AddVariableAttribute(owID, ncfile.TextAttribute("units", "s-2")); err != nil {
		return 0, err
	}
	lat := make([]float64, msh.NCells())
	lon := make([]float64, msh.NCells())
	for ci := range msh.Cells {
		lat[ci], lon[ci] = msh.Cells[ci].Lat, msh.Cells[ci].Lon
	}
	for _, v := range []struct {
		id   int
		data []float64
	}{{latID, lat}, {lonID, lon}, {owID, ow}} {
		if err := f.SetData(v.id, v.data); err != nil {
			return 0, err
		}
	}
	return f.WriteFile(path)
}
