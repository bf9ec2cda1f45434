package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/sim"
	batch "repro/internal/workload"
	"repro/internal/xrand"
	"repro/pcs"
)

// sink keeps the layer benchmarks' results alive so the compiler cannot
// drop the calls.
var sink float64

// nsPerOp times fn(i) for i in [0, n) and returns the median over batches
// of the nanoseconds per call.
func nsPerOp(n int, fn func(i int)) float64 {
	const batches = 5
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// measureLayers benchmarks single layers on the state a traced repetition
// left behind: its event-queue depth, its final placement and contention,
// its deployment's size and its profiling inputs.
func measureLayers(s *pcs.Simulation, cfg runConfig, tr *tracer, o *outcome) error {
	const id = 100
	svc := s.Service()
	cl := svc.Cluster()
	comps := svc.Components()
	opts := s.Options()

	sp := tr.start("layer.sim.push_pop", id, 0)
	depth := int(median(o.metrics["sim.pending_max"].Samples))
	eng := sim.NewEngine()
	src := xrand.New(cfg.seed)
	nop := func(float64) {}
	for i := 0; i < depth; i++ {
		eng.At(src.Float64(), nop)
	}
	o.add("sim.push_pop_ns", nsPerOp(cfg.layerOps, func(int) {
		eng.Step()
		eng.At(eng.Now()+src.Float64(), nop)
	}))
	tr.end(sp)

	sp = tr.start("layer.service.law_sample", id, 0)
	law := svc.Law()
	contention := make([]cluster.Vector, len(comps))
	for i, c := range comps {
		contention[i] = cl.Node(c.Primary().NodeID()).Contention()
	}
	o.add("service.law_sample_ns", nsPerOp(cfg.layerOps, func(i int) {
		c := i % len(comps)
		sink += law.Sample(comps[c].Spec.BaseServiceTime, contention[c], src)
	}))
	tr.end(sp)

	sp = tr.start("layer.cluster.contention_read", id, 0)
	o.add("cluster.contention_read_ns", nsPerOp(cfg.layerOps/2, func(i int) {
		in := comps[i%len(comps)].Primary()
		sink += cl.Node(in.NodeID()).ContentionExcluding(in.ProgramID())[cluster.Core]
	}))
	tr.end(sp)

	sp = tr.start("layer.scheduler.build_and_schedule", id, 0)
	in, err := experiments.SyntheticMatrixInput(s.Scenario(), len(comps), cl.NumNodes(), 10, opts.ArrivalRate, xrand.New(cfg.seed))
	if err != nil {
		return fmt.Errorf("building the matrix input: %w", err)
	}
	var analysis, search []float64
	for i := 0; i < cfg.tracedReps; i++ {
		res, _, err := scheduler.BuildAndSchedule(in, scheduler.Config{
			Epsilon: opts.EpsilonSeconds, MaxMigrations: opts.MaxMigrationsPerInterval})
		if err != nil {
			return fmt.Errorf("scheduling the matrix input: %w", err)
		}
		analysis = append(analysis, ms(res.AnalysisTime))
		search = append(search, ms(res.SearchTime))
	}
	o.add("predictor.matrix_build_ms", median(analysis))
	o.add("scheduler.search_ms", median(search))
	tr.end(sp)

	// Profiling inputs are built the way NewSimulation builds PCS's.
	sp = tr.start("layer.profiling.train", id, 0)
	sc, err := scenario.Get(s.Scenario())
	if err != nil {
		return err
	}
	topo := sc.Topology(opts.SearchComponents)
	backgrounds := batch.KindSizeGrid(batch.JobKinds(),
		batch.LinearSizes(12, opts.MinInputMB, opts.MaxInputMB))
	backgrounds = append(backgrounds,
		batch.TrainingMixes(xrand.New(cfg.seed), opts.TrainingMixes, 3, opts.MinInputMB, opts.MaxInputMB)...)
	var train []float64
	for i := 0; i < cfg.tracedReps; i++ {
		t0 := time.Now()
		if _, err := profiling.TrainStageModels(topo, law, backgrounds, profiling.Config{
			Probes:            opts.ProfilingProbes,
			MonitorNoiseSigma: opts.MonitorNoiseSigma,
			Degree:            opts.RegressionDegree,
		}, xrand.New(cfg.seed)); err != nil {
			return fmt.Errorf("training stage models: %w", err)
		}
		train = append(train, ms(time.Since(t0)))
	}
	o.add("profiling.train_ms", median(train))
	tr.end(sp)
	return nil
}
