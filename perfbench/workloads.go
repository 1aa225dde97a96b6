package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/span"
	"repro/internal/sparse"
)

// workload is one train-then-serve configuration. The three pair the
// paper's synchronous engine with dense data and lock-free Hogwild with
// sparse data, plus the Local-SGD family, and each loads the pool and the
// serving core in a different way (see README.md).
type workload struct {
	name    string
	dataset string // data registry name
	n       int    // examples per run (0 = the registry's N)
	// step is the SGD step size: small enough that every descent reaches
	// the 1% gap, and that one epoch more or less moves epochs_to_target by
	// under a tenth (see README.md for the steps tried).
	step      float64
	maxEpochs int // a descent still short of the target here has failed
	// engine builds the trainer; lt is non-nil in the traced run and wraps
	// the layers the engine calls through interfaces.
	engine func(m *model.LR, ds *data.Dataset, step float64, lt *layerTimes) core.Engine
	// rate > 0 serves an open loop at rate requests per second; 0 serves a
	// closed loop of GOMAXPROCS callers.
	rate float64
	// telemetry turns the program's own obs and span instrumentation on in
	// both halves, as sgdbench -obs and sgdserve -spans -slo run it.
	telemetry bool
}

var workloads = []workload{
	{
		name: "sync-dense", dataset: "covtype", n: 30000, step: 5, maxEpochs: 1000,
		engine: func(m *model.LR, ds *data.Dataset, step float64, lt *layerTimes) core.Engine {
			b := linalg.NewCPU(56)
			if lt == nil {
				return core.NewSync(b, m, ds, step)
			}
			return core.NewSync(&timedBackend{CPUBackend: b, lt: lt}, &timedModel{LR: m, lt: lt}, ds, step)
		},
	},
	{
		name: "hogwild-sparse", dataset: "w8a", step: 0.02, maxEpochs: 200, rate: 4000,
		engine: func(m *model.LR, ds *data.Dataset, step float64, _ *layerTimes) core.Engine {
			return core.NewHogwild(m, ds, step, runtime.GOMAXPROCS(0))
		},
	},
	{
		name: "local-sparse", dataset: "w8a", step: 0.2, maxEpochs: 200, telemetry: true,
		engine: func(m *model.LR, ds *data.Dataset, step float64, _ *layerTimes) core.Engine {
			return core.NewLocalSGD(m, ds, step, 8, 4)
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Serving configuration: sgdserve's defaults.
const (
	maxBatch   = 64
	maxDelay   = 2 * time.Millisecond
	sampleRate = 1.0                    // sgdserve -sample
	slowKeep   = 250 * time.Millisecond // sgdserve -slow
	sloSpec    = "latency<=250ms@99,errors@99.9"
)

// system is everything set-up builds: the inputs, the program's objects,
// and the serving core, started and waiting for a published model.
type system struct {
	spec   data.Spec
	ds     *data.Dataset
	m      *model.LR
	eng    *timedEngine
	traced *timedEngine // nil in the untraced run
	lt     *layerTimes
	store  *serve.Store
	core   *serve.Core
	agg    *obs.Aggregator // nil unless the workload runs with telemetry
	tracer *span.Tracer
	genSec float64 // data generation alone
}

// setUp generates the data and builds the model, engine and serving core.
//
// The examples are a sample, drawn by seed, of a population twice their
// size that data.Generate makes from the registry's fixed seed: the planted
// model stays the same on every seed, as a real dataset would, and only
// which examples a run trains and serves on changes. Seeding the generator
// itself redraws the planted model, and with it the conditioning of the
// problem: covtype full-batch descents then took from 163 to 269 epochs.
func setUp(wl workload, seed int64, traced bool) (*system, error) {
	spec, err := data.Lookup(wl.dataset)
	if err != nil {
		return nil, err
	}
	n := spec.N
	if wl.n > 0 {
		n = wl.n
	}
	spec.N = 2 * n
	s := &system{spec: spec}
	t0 := time.Now()
	s.ds = sample(data.Generate(spec), n, seed)
	s.genSec = time.Since(t0).Seconds()
	s.m = model.NewLR(s.ds.D())
	s.eng = newTimedEngine(wl.engine(s.m, s.ds, wl.step, nil))
	if traced {
		s.lt = &layerTimes{}
		s.traced = newTimedEngine(wl.engine(s.m, s.ds, wl.step, s.lt))
	}
	cfg := serve.Config{MaxBatch: maxBatch, MaxDelay: maxDelay}
	if wl.telemetry {
		s.agg = obs.NewAggregator()
		cfg.Rec = s.agg.Run("serve", spec.Name)
		s.tracer = span.NewTracer(span.Config{SampleRate: sampleRate, SlowThreshold: slowKeep, Seed: seed},
			span.NewWriter(io.Discard))
		cfg.Tracer = s.tracer
		objs, err := span.ParseObjectives(sloSpec)
		if err != nil {
			return nil, err
		}
		cfg.SLO = span.NewSLO(span.SLOConfig{Objectives: objs, FastWindow: time.Minute, BurnThreshold: 2})
	}
	s.store = serve.NewStore()
	s.core = serve.NewCore(s.m, s.store, cfg)
	return s, nil
}

// sample returns n examples of pop drawn without replacement by seed, in
// population order.
func sample(pop *data.Dataset, n int, seed int64) *data.Dataset {
	rows := rand.New(rand.NewSource(seed)).Perm(pop.N())[:n]
	sort.Ints(rows)
	nnz := 0
	for _, r := range rows {
		nnz += pop.X.RowNNZ(r)
	}
	x := &sparse.CSR{NumRows: n, NumCols: pop.D(), RowPtr: make([]int64, 1, n+1),
		ColIdx: make([]int32, 0, nnz), Values: make([]float64, 0, nnz)}
	y := make([]float64, n)
	for i, r := range rows {
		cols, vals := pop.X.Row(r)
		x.ColIdx = append(x.ColIdx, cols...)
		x.Values = append(x.Values, vals...)
		x.RowPtr = append(x.RowPtr, int64(len(x.Values)))
		y[i] = pop.Y[r]
	}
	return &data.Dataset{Name: pop.Name, X: x, Y: y}
}

// trainRecorder is the recorder a descent of the untraced configuration
// reports to: the workload's aggregator, or none.
func (s *system) trainRecorder() obs.Recorder {
	if s.agg == nil {
		return nil
	}
	return s.agg.Run(s.eng.Name(), s.spec.Name)
}
