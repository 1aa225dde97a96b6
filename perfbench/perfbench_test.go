package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sparse"
)

// entropy is the mean log-loss of predicting p for a group whose share of
// positive labels is p: the optimum of a one-feature group.
func entropy(p float64) float64 { return -p*math.Log(p) - (1-p)*math.Log(1-p) }

// twoGroups builds 4 rows in group A (3 positive) and 3 rows in group B
// (1 positive). With extra, a third column equal to A+B makes the Hessian
// singular, as covtype's one-hot groups do.
func twoGroups(extra bool) (*sparse.CSR, []float64) {
	labels := []float64{1, 1, 1, -1, 1, -1, -1}
	x := &sparse.CSR{NumRows: 7, NumCols: 2, RowPtr: []int64{0}}
	if extra {
		x.NumCols = 3
	}
	for i := range labels {
		col := int32(0)
		if i >= 4 {
			col = 1
		}
		x.ColIdx = append(x.ColIdx, col)
		x.Values = append(x.Values, 1)
		if extra {
			x.ColIdx = append(x.ColIdx, 2)
			x.Values = append(x.Values, 1)
		}
		x.RowPtr = append(x.RowPtr, int64(len(x.Values)))
	}
	return x, labels
}

func TestReferenceOptimumKnownProblem(t *testing.T) {
	want := (4*entropy(0.75) + 3*entropy(1.0/3)) / 7
	for _, extra := range []bool{false, true} {
		x, y := twoGroups(extra)
		opt, w, err := referenceOptimum(x, y)
		if err != nil {
			t.Fatalf("extra=%v: %v", extra, err)
		}
		if math.Abs(opt-want) > 1e-12 {
			t.Errorf("extra=%v: optimum %.15g, want %.15g", extra, opt, want)
		}
		// The group margins are the log-odds of each group's labels.
		if a := rowDot(x, 0, w); math.Abs(a-math.Log(3)) > 1e-6 {
			t.Errorf("extra=%v: group A margin %v, want ln 3", extra, a)
		}
		if b := rowDot(x, 4, w); math.Abs(b-math.Log(0.5)) > 1e-6 {
			t.Errorf("extra=%v: group B margin %v, want ln 1/2", extra, b)
		}
	}
}

func TestFullBatchStepMatchesNumericalGradient(t *testing.T) {
	x, y := twoGroups(true)
	w0 := []float64{0.3, -0.2, 0.1}
	got := fullBatchStep(x, y, w0, 1)
	const h = 1e-6
	for j := range w0 {
		wp := append([]float64(nil), w0...)
		wm := append([]float64(nil), w0...)
		wp[j] += h
		wm[j] -= h
		g := (meanLoss(x, y, wp) - meanLoss(x, y, wm)) / (2 * h)
		if math.Abs((w0[j]-got[j])-g) > 1e-8 {
			t.Errorf("component %d: step gradient %v, numerical %v", j, w0[j]-got[j], g)
		}
	}
}

type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.t
	ms := time.Millisecond
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 10 * ms}
	var issued, dueAt []time.Time
	late := openLoop(clk, start, due, func(k int, at time.Time) {
		issued = append(issued, clk.Now())
		dueAt = append(dueAt, at)
		if k == 0 {
			clk.Sleep(2500 * time.Microsecond) // the generator stalls sending request 0
		}
	})
	if late != 1500*time.Microsecond {
		t.Errorf("max lateness %v, want 1.5ms (request 1 sent at 2.5ms)", late)
	}
	wantIssued := []time.Duration{0, 2500 * time.Microsecond, 2500 * time.Microsecond, 3 * ms, 10 * ms}
	for k := range due {
		if dueAt[k] != start.Add(due[k]) {
			t.Errorf("request %d timed from %v, want its due time %v", k, dueAt[k].Sub(start), due[k])
		}
		if got := issued[k].Sub(start); got != wantIssued[k] {
			t.Errorf("request %d sent at %v, want %v", k, got, wantIssued[k])
		}
	}
}

func TestPoissonScheduleIsSeededAndOrdered(t *testing.T) {
	a := poissonSchedule(7, 1000, time.Second)
	b := poissonSchedule(7, 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("lengths %d and %d, want equal and near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= time.Second {
			t.Fatalf("schedule not seeded, ordered and inside the window at %d", i)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return v
	}
	if p, ok := tailPercentile(seq(1000), 0.99); !ok || p != 990 {
		t.Errorf("1000 samples: p99 %v ok=%v, want 990 with 10 beyond", p, ok)
	}
	if p, ok := tailPercentile(seq(999), 0.99); ok || p != 500 {
		t.Errorf("999 samples: got %v ok=%v, want the median 500: only 9 lie beyond p99", p, ok)
	}
	if p, ok := tailPercentile(nil, 0.99); ok || p != 0 {
		t.Errorf("no samples: got %v ok=%v", p, ok)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := median(v); m != 5.5 {
		t.Errorf("median %v, want 5.5", m)
	}
}

func TestHeapWatchSeesBufferLiveDuringCollection(t *testing.T) {
	h := watchHeap()
	buf := make([]byte, 16<<20)
	runtime.GC() // a collection the watch did not force, with buf live
	runtime.KeepAlive(buf)
	buf = nil
	deadline := time.Now().Add(5 * time.Second)
	for h.peak.Load() < 16<<20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // the finalizer goroutine reads the heap
	}
	if peak := h.stop(); peak < 16<<20 {
		t.Fatalf("peak %d bytes, want at least the 16 MiB buffer", peak)
	}
}

func TestClosedLoopRecordsUpToCapacityAndCountsAll(t *testing.T) {
	logs := [][]served{make([]served, 0, 3), make([]served, 0, 3)}
	var calls atomic.Int64
	predict := func(row int, since time.Time) served {
		n := calls.Add(1)
		time.Sleep(time.Millisecond)
		return served{latency: time.Since(since), failed: n%2 == 0}
	}
	n, failed := runClosedLoop(predict, []int{0}, logs, 30*time.Millisecond)
	if int64(n) != calls.Load() || n <= 6 {
		t.Fatalf("counted %d requests of %d made, want all of more than 6", n, calls.Load())
	}
	if len(logs[0]) != 3 || len(logs[1]) != 3 {
		t.Errorf("%d and %d records, want 3 per caller", len(logs[0]), len(logs[1]))
	}
	if want := int(calls.Load() / 2); failed != want {
		t.Errorf("%d failed, want %d", failed, want)
	}
}
