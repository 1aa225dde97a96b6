// Command perfbench is the repository's benchmark. Each workload generates
// its inputs from --seed, trains a logistic-regression model with one of
// the program's engines until the loss is within 1% of the optimum (the gap
// form of core.GapThreshold), publishes the weights once and serves them
// in-process through serve.Core, the way sgdserve's offline mode does.
// Training and serving never overlap. The run reports host wall-clock
// figures, checks every output against the benchmark's own computations,
// and prints one JSON object as its last line of standard output.
//
//	perfbench --workload sync-dense --seed 1 --seconds 24 --trace 0
//	perfbench --steady 10 --seconds 24
//
// --trace 1 makes a separate run that times each layer from outside and
// prints the per-layer metrics instead of the end-to-end ones. --steady N
// runs every workload N times, interleaved, in child processes and prints
// each end-to-end metric's spread next to its bound from BENCHMARK.json.
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Run shape.
const (
	setupRuns = 11   // set-ups per run; setup_s is their median
	trainFrac = 0.75 // share of --seconds spent on descents, the rest serving
	minDesc   = 3    // descents made even when they overrun the training share
	// closedLogRate is the requests per second of the serving phase each
	// closed-loop caller has records for: ten times what the 2 ms batching
	// deadline lets one caller send. Requests beyond it are counted and
	// checked but not timed.
	closedLogRate = 5000
	gapTol        = 0.01
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: sync-dense|hogwild-sparse|local-sparse")
		seed    = fs.Int64("seed", 1, "input seed: data, shuffles and request rows")
		seconds = fs.Float64("seconds", 24, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		steady  = fs.Int("steady", 0, "run every workload this many times, interleaved, and print spreads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		if err := steadiness(*steady, *seconds, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	wl, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	fmt.Fprintf(stdout, "# env num_cpu=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), wl.name, *seed, *seconds, *trace)
	res, err := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "# %-28s %14.6f %s\n", m.name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "# input data %.3f MB, not in heap_peak_mb\n", float64(res.input)/1e6)
	fmt.Fprintf(stdout, "# attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   []metric          `json:"-"`
	Map       map[string]metric `json:"metrics"`
	input     uint64            // bytes of input data, left out of heap_peak_mb
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a figure that does not apply to the workload (see README)
	}
	m := metric{name: name, Value: v, Unit: unit}
	r.Metrics = append(r.Metrics, m)
	r.Map[name] = m
}

// descent is one RunToConvergence from a zero model.
type descent struct {
	wall       float64   // seconds, loss evaluations included
	epochs     int       // epochs run
	epochWall  []float64 // seconds per RunEpoch
	modeled    []float64 // modeled seconds per RunEpoch
	modeledTTA float64   // modeled seconds to the target
	traced     bool
}

// checker collects correctness failures; the first few are printed.
type checker struct {
	mu     sync.Mutex
	stderr io.Writer
	n      int
}

func (c *checker) failf(format string, a ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n <= 5 {
		fmt.Fprintf(c.stderr, "perfbench: check failed: "+format+"\n", a...)
	}
}

func measure(wl workload, seed int64, window time.Duration, traced bool, stderr io.Writer) (*result, error) {
	chk := &checker{stderr: stderr}

	// Set-up, repeated from a collected heap each time.
	var sys *system
	var setupSec, genSec []float64
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			sys.core.Close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setUp(wl, seed, traced)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
		genSec = append(genSec, s.genSec)
		sys = s
	}
	defer sys.core.Close()
	ds, m := sys.ds, sys.m

	// Reference optimum and target, from the benchmark's own solver.
	opt, _, err := referenceOptimum(ds.X, ds.Y)
	if err != nil {
		return nil, err
	}
	zero := make([]float64, m.NumParams())
	initLoss := meanLoss(ds.X, ds.Y, zero)
	target := opt + gapTol*(initLoss-opt)

	// One epoch before timing lets lazy engine set-up finish. From a zero
	// model, the synchronous engine's epoch must be one full-batch step.
	for _, e := range []*timedEngine{sys.eng, sys.traced} {
		if e == nil {
			continue
		}
		w := m.InitParams(0)
		e.Engine.RunEpoch(w)
		if wl.name == "sync-dense" {
			want := fullBatchStep(ds.X, ds.Y, zero, wl.step)
			if d := maxRelDiff(w, want); d > 1e-12 {
				chk.failf("first sync epoch differs from a full-batch step by %.3g relative", d)
			}
		}
	}

	// The benchmark's own buffers are allocated before the timed phases, so
	// that every heap reading holds them and they can be subtracted with the
	// input data: the published weights, the served rows (drawn with
	// replacement), the epoch timings and the request records.
	serveWindow := window - time.Duration(trainFrac*float64(window))
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	rows := make([]int, 1<<16)
	for i := range rows {
		rows[i] = rng.Intn(ds.N())
	}
	var due []time.Duration
	var openLog []served
	var closedLogs [][]served
	pub := make([]float64, 0, m.NumParams())
	benchBytes := inputBytes(ds) + sliceBytes(pub) + sliceBytes(rows) + sliceBytes(sys.eng.wall) + sliceBytes(sys.eng.modeled)
	if sys.traced != nil {
		benchBytes += sliceBytes(sys.traced.wall) + sliceBytes(sys.traced.modeled)
	}
	if wl.rate > 0 {
		due = poissonSchedule(seed, wl.rate, serveWindow)
		openLog = make([]served, len(due))
		benchBytes += sliceBytes(due) + sliceBytes(openLog)
	} else {
		closedLogs = make([][]served, runtime.GOMAXPROCS(0))
		for c := range closedLogs {
			closedLogs[c] = make([]served, 0, int(serveWindow.Seconds()*closedLogRate))
			benchBytes += sliceBytes(closedLogs[c])
		}
	}
	heap := watchHeap()

	// Training: descents from fresh zero models with successive shuffle
	// seeds, until the training share of the window is spent. The weights
	// of the last descent that reached the target are the ones published.
	var descs []descent
	var counted []*countingRecorder
	w := m.InitParams(0)
	var firstW []float64
	firstEpochs := -1
	failedDesc := 0
	trainEnd := time.Now().Add(time.Duration(trainFrac * float64(window)))
	minRuns := minDesc
	if traced {
		minRuns = 2 * minDesc
	}
	k := 0
	for ; k < minRuns || time.Now().Before(trainEnd); k++ {
		eng, rec := sys.eng, sys.trainRecorder()
		isTraced := traced && k%2 == 1
		if isTraced {
			cr := &countingRecorder{inner: obs.Or(rec)}
			counted = append(counted, cr)
			eng, rec = sys.traced, cr
		}
		core.Seed(eng, seed*1000+int64(k))
		clear(w)
		ep0 := len(eng.wall)
		t0 := time.Now()
		res := core.RunToConvergence(eng, m, ds, w, core.DriverOpts{
			OptLoss: opt, MaxEpochs: wl.maxEpochs, Tolerances: []float64{gapTol}, Rec: rec,
		})
		wall := time.Since(t0).Seconds()
		if res.EpochsTo[gapTol] < 0 {
			failedDesc++
			continue
		}
		own := meanLoss(ds.X, ds.Y, w)
		if own > target {
			chk.failf("descent %d: own loss %.12g above target %.12g", k, own, target)
		}
		if math.Abs(own-res.FinalLoss) > 1e-9*math.Abs(own) {
			chk.failf("descent %d: own loss %.15g, program's FinalLoss %.15g", k, own, res.FinalLoss)
		}
		if wl.name == "sync-dense" {
			if firstW == nil {
				firstW, firstEpochs = append([]float64(nil), w...), res.Epochs
			} else if res.Epochs != firstEpochs || !bitwiseEqual(w, firstW) {
				chk.failf("descent %d: sync descent not reproducible (%d vs %d epochs)", k, res.Epochs, firstEpochs)
			}
		}
		pub = append(pub[:0], w...)
		descs = append(descs, descent{
			wall: wall, epochs: res.Epochs,
			epochWall: eng.wall[ep0:], modeled: eng.modeled[ep0:],
			modeledTTA: res.SecondsTo[gapTol], traced: isTraced,
		})
	}
	if len(pub) == 0 {
		heap.stop()
		return nil, errors.New("no descent reached the target")
	}
	heap.forced()

	// Publish once, then serve. Each reply is checked against the
	// benchmark's own dot product of the request with the published weights.
	sys.store.PublishWeights(pub, serve.Snapshot{Model: m.Name(), Dim: ds.D(), Loss: meanLoss(ds.X, ds.Y, pub)})
	sn := sys.store.Load()
	predict := func(row int, since time.Time) served {
		cols, vals := ds.X.Row(row)
		res, err := sys.core.Predict(cols, vals)
		r := served{latency: time.Since(since), queueWait: res.QueueWait, batchSize: int32(res.BatchSize), failed: err != nil}
		if err != nil {
			return r
		}
		own := rowDot(ds.X, row, sn.Weights)
		label := -1.0
		if own > 0 {
			label = 1
		}
		if res.Score != own || res.Label != label || res.Prob != sigmoid(own) || res.Version != sn.Version {
			chk.failf("row %d served score %v label %v prob %v v%d; own score %v label %v prob %v v%d",
				row, res.Score, res.Label, res.Prob, res.Version, own, label, sigmoid(own), sn.Version)
		}
		return r
	}
	var recs []served
	var requests, failedReq int
	var late time.Duration
	t0 := time.Now()
	if wl.rate > 0 {
		late = runOpenLoop(predict, rows, due, openLog)
		recs, requests = openLog, len(openLog)
		for _, r := range openLog {
			if r.failed {
				failedReq++
			}
		}
	} else {
		requests, failedReq = runClosedLoop(predict, rows, closedLogs, serveWindow)
	}
	serveSec := time.Since(t0).Seconds()
	heap.forced()
	peak := heap.stop()
	for _, l := range closedLogs {
		recs = append(recs, l...)
	}

	var lat, qwait, bsize []float64
	for _, r := range recs {
		if r.failed {
			continue
		}
		lat = append(lat, r.latency.Seconds()*1e3)
		qwait = append(qwait, r.queueWait.Seconds()*1e3)
		bsize = append(bsize, float64(r.batchSize))
	}

	attempted, failed := k+requests, failedDesc+failedReq
	if wl.name == "hogwild-sparse" && runtime.GOMAXPROCS(0) < 2 {
		// With one P, Hogwild emulates its threads deterministically
		// instead of racing them: not the configuration this measures.
		fmt.Fprintln(stderr, "perfbench: hogwild-sparse needs GOMAXPROCS >= 2; every operation counts as failed")
		failed = attempted
	}
	out := &result{Correct: chk.n == 0, Attempted: attempted, Failed: failed, Map: map[string]metric{}, input: inputBytes(ds)}

	var plainTTA, plainEpochs, plainEpochWall, tracedTTA, modeledEpoch, modeledTTA []float64
	var tracedEpochs int
	var tracedEval float64
	for _, d := range descs {
		modeledEpoch = append(modeledEpoch, d.modeled...)
		modeledTTA = append(modeledTTA, d.modeledTTA)
		if d.traced {
			tracedTTA = append(tracedTTA, d.wall)
			tracedEpochs += d.epochs
			tracedEval += d.wall - sum(d.epochWall)
			continue
		}
		plainTTA = append(plainTTA, d.wall)
		plainEpochs = append(plainEpochs, float64(d.epochs))
		plainEpochWall = append(plainEpochWall, d.epochWall...)
	}
	p50 := median(lat)
	if !traced {
		out.add("tta_s", median(plainTTA), "s")
		out.add("epochs_to_target", median(plainEpochs), "count")
		out.add("epoch_ms", median(plainEpochWall)*1e3, "ms")
		out.add("serve_p50_ms", p50, "ms")
		out.add("serve_rps", float64(requests-failedReq)/serveSec, "req/s")
		out.add("setup_s", median(setupSec), "s")
		out.add("heap_peak_mb", float64(peak-benchBytes)/1e6, "MB")
		return out, nil
	}

	// Traced run: the per-layer figures.
	lt := sys.lt
	perEpoch := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(tracedEpochs) }
	var calls, rounds int64
	var lossEval []float64
	for _, c := range counted {
		calls += c.calls
		rounds += c.rounds
		lossEval = append(lossEval, c.lossEval...)
	}
	epochMs := median(plainEpochWall) * 1e3
	passMs := sgdStepPassMs(sys, seed, wl.step)
	localRounds := float64(rounds) / float64(tracedEpochs)
	st := sys.core.Stats().Snapshot()
	out.add("data.generate_s", median(genSec), "s")
	out.add("linalg.spmv_ms", perEpoch(lt.spmv), "ms")
	out.add("linalg.spmvt_ms", perEpoch(lt.spmvt), "ms")
	out.add("linalg.elementwise_ms", perEpoch(lt.elementwise), "ms")
	out.add("model.batchgrad_self_ms", perEpoch(lt.batchGrad-lt.batchGradLinalg), "ms")
	out.add("model.meanloss_ms", median(lossEval)*1e3, "ms")
	out.add("model.sgdstep_pass_ms", passMs, "ms")
	out.add("pool.dispatch_us", poolDispatchUs(), "us")
	out.add("core.parallel_efficiency", passMs/epochMs, "ratio")
	out.add("core.local_rounds", localRounds, "count")
	out.add("core.round_us", epochMs*1e3/localRounds, "us")
	out.add("core.eval_ms", tracedEval*1e3/float64(tracedEpochs), "ms")
	out.add("core.modeled_epoch_ms", median(modeledEpoch)*1e3, "ms")
	out.add("core.modeled_tta_s", median(modeledTTA), "s")
	out.add("obs.events_per_epoch", float64(calls)/float64(tracedEpochs), "count")
	p99, _ := tailPercentile(lat, 0.99)
	out.add("serve.p99_ms", p99, "ms")
	out.add("serve.queue_wait_ms", median(qwait), "ms")
	out.add("serve.batch_size", mean(bsize), "count")
	out.add("serve.batches", float64(st.Batches), "count")
	out.add("serve.server_p50_ms", st.LatencyP50*1e3, "ms")
	out.add("serve.client_gap_ms", p50-st.LatencyP50*1e3, "ms")
	out.add("span.traces_kept", float64(sys.tracer.Stats().Kept), "count")
	out.add("loadgen.late_ms", late.Seconds()*1e3, "ms")
	out.add("trace.overhead_pct", 100*(median(tracedTTA)-median(plainTTA))/median(plainTTA), "%")
	return out, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// maxRelDiff is max|a-b| relative to max|b|.
func maxRelDiff(a, b []float64) float64 {
	var d, s float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		s = math.Max(s, math.Abs(b[i]))
	}
	if s == 0 {
		return d
	}
	return d / s
}

// sgdStepPassMs is the median time of a one-goroutine pass of the model's
// own SGDStep over a shuffle of the data, on a private vector: the
// per-example work an asynchronous epoch splits across its workers.
func sgdStepPassMs(s *system, seed int64, step float64) float64 {
	perm := rand.New(rand.NewSource(seed)).Perm(s.ds.N())
	w := s.m.InitParams(0)
	scr := s.m.NewScratch()
	var passes []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for _, i := range perm {
			s.m.SGDStep(w, s.ds, i, step, model.RawUpdater{}, scr)
		}
		passes = append(passes, time.Since(t0).Seconds()*1e3)
	}
	return median(passes)
}

type emptyTask struct{}

func (emptyTask) Run(lo, hi int) {}

// poolDispatchUs is the median cost of one empty pool.Default().Run across
// every worker, over batches of dispatches.
func poolDispatchUs() float64 {
	p := pool.Default()
	const batch = 2000
	var per []float64
	for rep := 0; rep < 15; rep++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			p.Run(p.Size(), p.Size(), emptyTask{})
		}
		per = append(per, time.Since(t0).Seconds()*1e6/batch)
	}
	return median(per)
}

// heapWatch keeps the highest live heap that any garbage collection finds
// while it is armed. A finalizer on a sentinel object runs once after each
// collection, reads /gc/heap/live:bytes and re-arms itself on a fresh
// sentinel, so collections the program triggers itself are sampled too, and
// with them the buffers live while they ran.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type sentinel struct{ h *heapWatch } // holds a pointer, so it is not a tiny allocation

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{h}, func(s *sentinel) {
		if !s.h.stopped.Load() {
			s.h.note()
			s.h.arm()
		}
	})
}

func (h *heapWatch) note() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	for v := s[0].Value.Uint64(); ; {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// forced adds a reading after a forced collection. It is made between timed
// sections, so that the state the program holds at the end of a phase is
// always counted.
func (h *heapWatch) forced() {
	runtime.GC()
	h.note()
}

// stop disarms the watch and returns the highest reading.
func (h *heapWatch) stop() uint64 {
	h.stopped.Store(true)
	return h.peak.Load()
}

// inputBytes is the heap the generated dataset occupies: the program's
// input, held by the benchmark.
func inputBytes(ds *data.Dataset) uint64 {
	x := ds.X
	return sliceBytes(x.RowPtr) + sliceBytes(x.ColIdx) + sliceBytes(x.Values) + sliceBytes(ds.Y)
}

// sliceBytes is the size of s's backing array.
func sliceBytes[T any](s []T) uint64 {
	var z T
	return uint64(cap(s)) * uint64(unsafe.Sizeof(z))
}
