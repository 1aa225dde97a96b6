package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// The wrappers in this file time calls into one layer's public functions
// from outside. Each forwards the optional interfaces the program
// type-asserts on the value it wraps (core.Instrumented, core.Seeded,
// model.BatchScratchProvider); dropping one would change the program being
// measured, e.g. BatchGrad would allocate fresh buffers on every epoch.

// timedEngine records the wall time and the modeled seconds of every
// RunEpoch. It is the only wrapper the untraced run uses: two clock reads
// per epoch.
type timedEngine struct {
	core.Engine
	wall    []float64 // seconds per RunEpoch
	modeled []float64 // RunEpoch's modeled paper-machine seconds
}

func newTimedEngine(e core.Engine) *timedEngine {
	return &timedEngine{Engine: e, wall: make([]float64, 0, 1<<14), modeled: make([]float64, 0, 1<<14)}
}

func (t *timedEngine) RunEpoch(w []float64) float64 {
	t0 := time.Now()
	s := t.Engine.RunEpoch(w)
	t.wall = append(t.wall, time.Since(t0).Seconds())
	t.modeled = append(t.modeled, s)
	return s
}

// SetRecorder forwards core.Instrumented.
func (t *timedEngine) SetRecorder(r obs.Recorder) { core.Instrument(t.Engine, r) }

// SetShuffleSeed forwards core.Seeded.
func (t *timedEngine) SetShuffleSeed(seed int64) { core.Seed(t.Engine, seed) }

// layerTimes accumulates the traced run's per-layer wall time.
type layerTimes struct {
	spmv, spmvt, elementwise time.Duration
	batchGrad                time.Duration // whole BatchGrad calls
	batchGradLinalg          time.Duration // linalg calls made inside BatchGrad
	inBatchGrad              bool
}

func (lt *layerTimes) addKernel(into *time.Duration, t0 time.Time) {
	d := time.Since(t0)
	*into += d
	if lt.inBatchGrad {
		lt.batchGradLinalg += d
	}
}

// timedBackend times the kernels LR's batch gradient and the synchronous
// update use. Embedding the concrete CPU backend forwards everything else,
// BatchScratch included.
type timedBackend struct {
	*linalg.CPUBackend
	lt *layerTimes
}

func (b *timedBackend) SpMV(a *sparse.CSR, x, y []float64) {
	t0 := time.Now()
	b.CPUBackend.SpMV(a, x, y)
	b.lt.addKernel(&b.lt.spmv, t0)
}

func (b *timedBackend) SpMVT(a *sparse.CSR, x, y []float64) {
	t0 := time.Now()
	b.CPUBackend.SpMVT(a, x, y)
	b.lt.addKernel(&b.lt.spmvt, t0)
}

func (b *timedBackend) Map(dst, src, aux []float64, f func(s, a float64) float64) {
	t0 := time.Now()
	b.CPUBackend.Map(dst, src, aux, f)
	b.lt.addKernel(&b.lt.elementwise, t0)
}

func (b *timedBackend) Axpy(alpha float64, x, y []float64) {
	t0 := time.Now()
	b.CPUBackend.Axpy(alpha, x, y)
	b.lt.addKernel(&b.lt.elementwise, t0)
}

func (b *timedBackend) Scal(alpha float64, x []float64) {
	t0 := time.Now()
	b.CPUBackend.Scal(alpha, x)
	b.lt.addKernel(&b.lt.elementwise, t0)
}

// timedModel times BatchGrad; the linalg calls it makes are timed by the
// backend, so the difference is the model's own work.
type timedModel struct {
	*model.LR
	lt *layerTimes
}

func (m *timedModel) BatchGrad(b model.Ops, w []float64, ds *data.Dataset, rows []int, g []float64) float64 {
	m.lt.inBatchGrad = true
	t0 := time.Now()
	loss := m.LR.BatchGrad(b, w, ds, rows, g)
	m.lt.batchGrad += time.Since(t0)
	m.lt.inBatchGrad = false
	return loss
}

// countingRecorder counts every Recorder call an engine and RunToConvergence make
// and keeps the two figures the traced run reports from the stream, then
// forwards the call to the recorder the workload would have had anyway.
type countingRecorder struct {
	inner    obs.Recorder
	calls    int64
	rounds   int64
	lossEval []float64 // seconds per between-epoch loss evaluation
}

func (r *countingRecorder) Phase(p obs.Phase, seconds float64) {
	r.calls++
	if p == obs.PhaseLossEval {
		r.lossEval = append(r.lossEval, seconds)
	}
	r.inner.Phase(p, seconds)
}

func (r *countingRecorder) Add(c obs.Counter, delta int64) {
	r.calls++
	if c == obs.CounterLocalRounds {
		r.rounds += delta
	}
	r.inner.Add(c, delta)
}

func (r *countingRecorder) Observe(m obs.Metric, v float64) {
	r.calls++
	r.inner.Observe(m, v)
}

func (r *countingRecorder) EndEpoch(modeledSeconds float64) {
	r.calls++
	r.inner.EndEpoch(modeledSeconds)
}

var (
	_ core.Instrumented          = (*timedEngine)(nil)
	_ core.Seeded                = (*timedEngine)(nil)
	_ linalg.Backend             = (*timedBackend)(nil)
	_ model.BatchScratchProvider = (*timedBackend)(nil)
	_ model.BatchModel           = (*timedModel)(nil)
	_ obs.Recorder               = (*countingRecorder)(nil)
)
