package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"cvcp"
	"cvcp/internal/cluster/copkmeans"
	"cvcp/internal/cluster/fosc"
	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/cluster/mpckmeans"
	"cvcp/internal/cluster/optics"
	"cvcp/internal/eval"
	"cvcp/internal/linalg"
	"cvcp/internal/stats"
)

// selectKind is one library workload: its dataset size, how many datasets
// its Selects cycle through, its grid and supervision, and the fewest
// Selects an untraced run measures, whatever the window.
type selectKind struct {
	n, datasets int
	grid        func() cvcp.Grid
	sup         func(ds *cvcp.Dataset, seed int64) cvcp.Supervision
	desc        string
	minOps      int
}

// foscSelect is FOSC-OPTICSDend over the paper's MinPts grid with
// Scenario II constraints: every pairwise constraint among a 10% label
// pool.
var foscSelect = selectKind{
	n:        nRows,
	datasets: 1,
	grid: func() cvcp.Grid {
		return cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: cvcp.DefaultMinPtsRange}}
	},
	sup: func(ds *cvcp.Dataset, seed int64) cvcp.Supervision {
		return cvcp.ConstraintSet(cvcp.ConstraintPool(cvcp.NewRand(seed), ds.Y, labelFrac))
	},
	desc:   "FOSC-OPTICSDend MinPts {3..24 step 3}, Scenario II constraint pool",
	minOps: minSamples,
}

// kmeansSelect is a cross-method grid of MPCK-means and COP-KMeans over
// k 2..10 with Scenario I labels. At n = 2000 one Select took 4.2–7.4 s
// on a 2-CPU host as the host's load changed, and a run with its
// Workers=1 reference took up to 55 s; n = 1000 keeps the benchmark's
// runs within their time budget and gives each run more Selects.
var kmeansSelect = selectKind{
	n: nRows / 2,
	// MPCK's iteration count and COP-KMeans's infeasible cells depend on
	// the sample: with one dataset the median Select of a run moved by
	// 27% between seeds. Cycling through four averages that out.
	datasets: 4,
	grid: func() cvcp.Grid {
		return cvcp.Grid{
			{Algorithm: cvcp.MPCKMeans{}, Params: cvcp.KRange(2, 10)},
			{Algorithm: cvcp.COPKMeans{}, Params: cvcp.KRange(2, 10)},
		}
	},
	sup: func(ds *cvcp.Dataset, seed int64) cvcp.Supervision {
		return cvcp.Labels(ds.SampleLabels(cvcp.NewRand(seed), labelFrac))
	},
	desc: "MPCKmeans + COP-KMeans k 2..10, Scenario I labels",
	// The host's speed changes move a few Selects by 20% from run to run;
	// an untraced run measures at least two whole cycles.
	minOps: 8,
}

// selectOp is one timed Select and the peak resident memory in MB
// during it.
type selectOp struct {
	wall, ack time.Duration
	peakMB    float64
}

// input is one dataset of a library workload with its supervision, the
// seed of its Selects and its untimed Workers=1 reference selection.
type input struct {
	base *cvcp.Dataset
	sup  cvcp.Supervision
	seed int64
	ref  *cvcp.Result
}

// datasetStride separates the generator and Select seeds of a workload's
// datasets. Each dataset gets its own Select seed because the seed picks
// the k-means starts: with one seed shared by all four select-kmeans
// datasets, their iteration counts rose and fell together, and one seed's
// Selects stayed 15–25% slower than another's on every rerun.
const datasetStride = 1_000_003

// serialSelect runs a Workers=1 Select of in on its own copy and returns
// it with its wall time in seconds.
func serialSelect(in input, grid cvcp.Grid) (*cvcp.Result, float64, error) {
	t0 := time.Now()
	res, err := cvcp.Select(context.Background(), cvcp.Spec{Dataset: in.base.Clone(), Grid: grid,
		Supervision: in.sup, Options: cvcp.Options{NFolds: nFolds, Seed: in.seed, Workers: 1}})
	return res, time.Since(t0).Seconds(), err
}

func runSelect(c config, k selectKind) (*outcome, error) {
	out := &outcome{}
	grid := k.grid()
	inputs := make([]input, k.datasets)
	var csv0 string // the first dataset's CSV, whose ReadCSV is the set-up
	for v := range inputs {
		mix := genMixture(c.seed+int64(v)*datasetStride, k.n, nDims, nClasses)
		if v == 0 {
			csv0 = mix.csv
		}
		var err error
		if inputs[v].base, err = cvcp.ReadCSV("mixture", strings.NewReader(mix.csv), true); err != nil {
			return nil, err
		}
		inputs[v].sup = k.sup(inputs[v].base, c.seed+1+int64(v))
		inputs[v].seed = c.seed + int64(v)*datasetStride
		if inputs[v].ref, _, err = serialSelect(inputs[v], grid); err != nil {
			return nil, fmt.Errorf("reference select: %w", err)
		}
	}
	cells := 0
	for _, cand := range grid {
		cells += len(cand.Params) * nFolds
	}
	out.sizes = map[string]any{"n": k.n, "datasets": k.datasets, "d": nDims, "classes": nClasses, "folds": nFolds,
		"grid": k.desc, "cells": cells, "label_frac": labelFrac, "workers": runtime.GOMAXPROCS(0)}

	if !c.trace {
		// The set-up is timed setupPerOp times before the window and
		// again after every Select, so its median samples the host's
		// speed across the whole run rather than during one instant.
		var (
			setups   []float64
			setupErr error
		)
		timeSetups := func() {
			for r := 0; r < setupPerOp && setupErr == nil; r++ {
				t0 := time.Now()
				_, setupErr = cvcp.ReadCSV("mixture", strings.NewReader(csv0), true)
				setups = append(setups, time.Since(t0).Seconds())
			}
		}
		timeSetups()
		ops := selectPhase(c, inputs, grid, nil, c.seconds, k.minOps, timeSetups, out)
		if setupErr != nil {
			return nil, setupErr
		}
		walls := opWalls(ops)
		out.setSamples(walls)
		var peaks []float64
		for _, op := range ops {
			peaks = append(peaks, op.peakMB)
		}
		out.set("peak_rss_mb", "MB", median(peaks), len(peaks))
		out.set("setup_s", "s", median(setups), len(setups))
		return out, nil
	}

	// Traced run: an untraced half window, then a traced half window (their
	// mean difference is the tracing overhead), then the serial layer replay.
	plain := selectPhase(c, inputs, grid, nil, c.seconds/2, minSamples, nil, out)
	tr := newTracer()
	before := scrape()
	traced := selectPhase(c, inputs, grid, tr, c.seconds/2, minSamples, nil, out)
	after := scrape()
	// replay.coverage compares the replay with a Workers=1 Select run just
	// before it, so host speed drifts little between the two.
	in := inputs[0]
	again, serialWall, err := serialSelect(in, grid)
	if err != nil {
		return nil, fmt.Errorf("serial select: %w", err)
	}
	out.attempted++
	if msg := sameResult(in.ref, again); msg != "" {
		out.fail("serial select: %s", msg)
	}
	out.attempted++
	rp, err := replay(in.base, grid, in.sup, in.seed, in.ref)
	if err != nil {
		out.fail("replay: %v", err)
	}
	layers := zeroLayers()
	nOps := float64(len(traced))
	self := tr.selfTimes()
	dur := tr.durations()
	wallSum := sum(opWalls(traced)) / 1000
	cellBusy := sum(dur["cvcp.cell"])
	layers["cvcp.folds_s"] = sum(dur["cvcp.folds"]) / nOps
	layers["cvcp.cells"] = float64(len(dur["cvcp.cell"])) / nOps
	layers["cvcp.cell_s"] = cellBusy / nOps
	layers["cvcp.refit_s"] = sum(dur["cvcp.refit"]) / nOps
	layers["cvcp.overhead_s"] = self["cvcp.Select"] / nOps
	layers["runner.busy_frac"] = cellBusy / (wallSum * float64(runtime.GOMAXPROCS(0)))
	engineLayers(layers, before, after, nOps)
	for name, v := range rp.layers {
		layers[name] = v
	}
	layers["replay.coverage"] = rp.total / serialWall
	var acks []float64
	for _, op := range traced {
		acks = append(acks, ms(op.ack))
	}
	layers["client.ack_ms.p50"] = median(acks)
	if layers["dataset.decode_s"], err = decodeTime(csv0); err != nil {
		return nil, err
	}
	layers["trace.overhead_ms"] = mean(opWalls(traced)) - mean(opWalls(plain))
	layers["trace.spans"] = float64(len(tr.closed()))
	tr.dump(traceDir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	setLayers(out, layers)
	return out, nil
}

// setupPerOp is how many times an untraced library run times its set-up
// (one ReadCSV) before the window and after each Select.
const setupPerOp = 5

func opWalls(ops []selectOp) []float64 {
	var out []float64
	for _, op := range ops {
		out = append(out, ms(op.wall))
	}
	return out
}

// selectPhase runs closed-loop Selects at Workers = GOMAXPROCS for the
// window, cycling through the inputs, each on a fresh clone of its dataset
// (the engine's run cache is keyed by dataset identity, so a reused
// pointer would measure cached OPTICS orderings), and checks each result
// against its input's reference bit for bit. It stops only after a whole
// cycle, so every input weighs the same in the run's mean and percentiles
// however many Selects fit in the window. Each Select's peak resident
// memory is read with the high-water mark reset just before it, untimed:
// the peak of a whole window of small Selects moved by 30% between runs
// with the garbage collector's timing. A non-nil between runs after every
// Select, outside its timing.
func selectPhase(c config, inputs []input, grid cvcp.Grid, tr *tracer, seconds float64, minOps int, between func(), out *outcome) []selectOp {
	var ops []selectOp
	start := time.Now()
	for i := 0; i%len(inputs) != 0 || window(start, seconds, len(ops), minOps); i++ {
		in := inputs[i%len(inputs)]
		ds := in.base.Clone()
		resetPeakRSS()
		var (
			first    atomic.Int64
			gridDone atomic.Bool
			t0       = time.Now()
		)
		opt := cvcp.Options{NFolds: nFolds, Seed: in.seed, Workers: -1}
		opt.Progress = func(done, total int) {
			first.CompareAndSwap(0, int64(time.Since(t0)))
			if done == total {
				gridDone.Store(true)
			}
		}
		g, s := grid, in.sup
		root := -1
		if tr != nil {
			root = tr.begin("cvcp.Select", i, -1)
			g = make(cvcp.Grid, len(grid))
			for ci, cand := range grid {
				g[ci] = cvcp.Candidate{Algorithm: tracedAlgorithm{cand.Algorithm, tr, i, root, &gridDone}, Params: cand.Params}
			}
			s = tracedSupervision{in.sup, tr, i, root}
		}
		res, err := cvcp.Select(context.Background(), cvcp.Spec{Dataset: ds, Grid: g, Supervision: s, Options: opt})
		wall := time.Since(t0)
		peak := peakRSSMB()
		tr.end(root)
		out.attempted++
		if err != nil {
			out.fail("select %d: %v", i, err)
		} else if msg := sameResult(in.ref, res); msg != "" {
			out.fail("select %d: %s", i, msg)
		}
		ops = append(ops, selectOp{wall: wall, ack: time.Duration(first.Load()), peakMB: peak})
		if between != nil {
			between()
		}
	}
	return ops
}

// sameResult compares two selections bit for bit: the winner, every fold
// score of every candidate and every final labelling. It returns "" when
// they match.
func sameResult(want, got *cvcp.Result) string {
	if want.Winner.Algorithm != got.Winner.Algorithm || want.Winner.Best.Param != got.Winner.Best.Param {
		return fmt.Sprintf("winner %s/%d, want %s/%d", got.Winner.Algorithm, got.Winner.Best.Param,
			want.Winner.Algorithm, want.Winner.Best.Param)
	}
	if len(want.PerCandidate) != len(got.PerCandidate) {
		return "candidate count differs"
	}
	for ci, w := range want.PerCandidate {
		g := got.PerCandidate[ci]
		if msg := sameScores(w.Scores, g.Scores); msg != "" {
			return w.Algorithm + ": " + msg
		}
		if !slices.Equal(w.FinalLabels, g.FinalLabels) {
			return w.Algorithm + ": final labels differ"
		}
	}
	return ""
}

func sameScores(want, got []cvcp.ParamScore) string {
	if len(want) != len(got) {
		return "parameter count differs"
	}
	for pi := range want {
		if len(want[pi].FoldScores) != len(got[pi].FoldScores) {
			return fmt.Sprintf("param %d: fold count differs", want[pi].Param)
		}
		for fi, w := range want[pi].FoldScores {
			if math.Float64bits(w) != math.Float64bits(got[pi].FoldScores[fi]) {
				return fmt.Sprintf("param %d fold %d: score %v, want %v", want[pi].Param, fi, got[pi].FoldScores[fi], w)
			}
		}
	}
	return ""
}

// tracedAlgorithm times every Cluster call of one traced Select. Calls
// that start after Options.Progress reported the whole grid are the
// refits; the others are grid cells.
type tracedAlgorithm struct {
	cvcp.Algorithm
	tr          *tracer
	trace, root int
	gridDone    *atomic.Bool
}

func (a tracedAlgorithm) Cluster(ds *cvcp.Dataset, train *cvcp.Constraints, param int, seed int64) ([]int, error) {
	name := "cvcp.cell"
	if a.gridDone.Load() {
		name = "cvcp.refit"
	}
	sp := a.tr.begin(name, a.trace, a.root)
	defer a.tr.end(sp)
	return a.Algorithm.Cluster(ds, train, param, seed)
}

// tracedSupervision times fold planning (Supervision.CVFolds).
type tracedSupervision struct {
	cvcp.Supervision
	tr          *tracer
	trace, root int
}

func (s tracedSupervision) CVFolds(ds *cvcp.Dataset, n int, seed int64) ([]cvcp.Fold, *cvcp.Constraints, error) {
	sp := s.tr.begin("cvcp.folds", s.trace, s.root)
	defer s.tr.end(sp)
	return s.Supervision.CVFolds(ds, n, seed)
}

// replayResult is the serial layer replay of one Select's cells.
type replayResult struct {
	layers map[string]float64
	total  float64 // seconds spent inside replayed layer calls
}

// replay recomputes every cell and refit of a Select serially, calling
// each layer's public function directly and timing it, and checks that
// the replayed cell scores and final labels equal ref bit for bit.
func replay(ds *cvcp.Dataset, grid cvcp.Grid, sup cvcp.Supervision, seed int64, ref *cvcp.Result) (replayResult, error) {
	rp := replayResult{layers: map[string]float64{}}
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0).Seconds()
		rp.layers[name] += d
		rp.total += d
	}
	var (
		folds []cvcp.Fold
		full  *cvcp.Constraints
		err   error
	)
	timed("replay.folds_s", func() { folds, full, err = sup.CVFolds(ds, nFolds, seed) })
	if err != nil {
		return rp, err
	}
	var dm *linalg.DistMatrix
	for ci, cand := range grid {
		want := ref.PerCandidate[ci]
		var cluster func(pi int, train *cvcp.Constraints, cellSeed int64) ([]int, error)
		switch cand.Algorithm.(type) {
		case cvcp.FOSCOpticsDend:
			if dm == nil {
				timed("linalg.distmatrix_s", func() { dm = linalg.NewDistMatrixCondensed(ds.X) })
				rp.layers["linalg.bytes_computed"] = float64(ds.N()*(ds.N()-1)/2) * float64(ds.Dims()) * 8
			}
			ords := map[int]*optics.Result{}
			cluster = func(pi int, train *cvcp.Constraints, _ int64) ([]int, error) {
				minPts := cand.Params[pi]
				ord, ok := ords[minPts]
				if !ok {
					timed("optics.run_s", func() { ord, err = optics.RunWithMatrix(dm, minPts) })
					if err != nil {
						return nil, err
					}
					ords[minPts] = ord
					rp.layers["optics.runs"]++
				}
				var dend *hierarchy.Dendrogram
				timed("hierarchy.dendrogram_s", func() { dend, err = hierarchy.FromReachability(ord) })
				if err != nil {
					return nil, err
				}
				var ext *fosc.Result
				timed("fosc.extract_s", func() { ext, err = fosc.Extract(dend, train, fosc.Config{MinClusterSize: minPts}) })
				rp.layers["fosc.calls"]++
				if err != nil {
					return nil, err
				}
				return ext.Labels, nil
			}
		case cvcp.MPCKMeans:
			cluster = func(pi int, train *cvcp.Constraints, cellSeed int64) ([]int, error) {
				var res *mpckmeans.Result
				timed("mpckmeans.run_s", func() {
					res, err = mpckmeans.Run(ds.X, train, mpckmeans.Config{K: cand.Params[pi], Seed: cellSeed, LearnMetric: true})
				})
				rp.layers["mpckmeans.calls"]++
				if err != nil {
					return nil, err
				}
				rp.layers["mpckmeans.iters"] += float64(res.Iters)
				return res.Labels, nil
			}
		case cvcp.COPKMeans:
			cluster = func(pi int, train *cvcp.Constraints, cellSeed int64) ([]int, error) {
				var res *copkmeans.Result
				timed("copkmeans.run_s", func() {
					res, err = copkmeans.Run(ds.X, train, copkmeans.Config{K: cand.Params[pi], Seed: cellSeed})
				})
				if errors.Is(err, copkmeans.ErrInfeasible) {
					rp.layers["copkmeans.infeasible"]++
					labels := make([]int, ds.N())
					for i := range labels {
						labels[i] = -1
					}
					return labels, nil
				}
				if err != nil {
					return nil, err
				}
				rp.layers["copkmeans.iters"] += float64(res.Iters)
				return res.Labels, nil
			}
		default:
			return rp, fmt.Errorf("replay: no layer replay for %s", cand.Algorithm.Name())
		}
		for pi := range cand.Params {
			for fi, fold := range folds {
				labels, err := cluster(pi, fold.Train, stats.SplitSeed(seed, pi*len(folds)+fi+1))
				if err != nil {
					return rp, err
				}
				var score float64
				timed("eval.constraintf_s", func() { score = eval.ConstraintF(labels, fold.Test) })
				if math.Float64bits(score) != math.Float64bits(want.Scores[pi].FoldScores[fi]) {
					return rp, fmt.Errorf("%s param %d fold %d: replayed score %v, Select scored %v",
						want.Algorithm, cand.Params[pi], fi, score, want.Scores[pi].FoldScores[fi])
				}
			}
		}
		best := 0
		for pi, p := range cand.Params {
			if p == want.Best.Param {
				best = pi
			}
		}
		labels, err := cluster(best, full, stats.SplitSeed(seed, 0))
		if err != nil {
			return rp, err
		}
		if !slices.Equal(labels, want.FinalLabels) {
			return rp, fmt.Errorf("%s: replayed final labels differ from Select's", want.Algorithm)
		}
	}
	return rp, nil
}
