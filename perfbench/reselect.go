package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cvcp"
	corecvcp "cvcp/internal/cvcp"
	"cvcp/internal/server"
	"cvcp/internal/store"
)

// appendRows is the batch size of every append. It stays below nFolds on
// purpose: stable folds are row index mod folds, so a batch of at least
// nFolds rows dirties every fold and leaves no cell to reuse.
const appendRows = 3

// reselectTopologies is how many topologies the set-up phase builds; the
// median set-up time is reported and the last topology is measured.
const reselectTopologies = 3

// topology is one coordinator plus two workers, each on its own
// store.OpenShared handle over one directory, all in this process.
type topology struct {
	dir     string
	shared  []*store.Shared // coordinator, worker-1, worker-2
	traced  []*tracedStore
	mgr     *server.Manager
	srv     *httptest.Server
	api     *apiClient
	cancel  context.CancelFunc
	workers sync.WaitGroup
	dsID    string
	rows    int
}

func startTopology(tr *tracer) (*topology, error) {
	dir, err := os.MkdirTemp("", "perfbench-dist-")
	if err != nil {
		return nil, err
	}
	t := &topology{dir: dir}
	roles := make([]store.Store, 3)
	for i := range roles {
		s, err := store.OpenShared(dir)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.shared = append(t.shared, s)
		roles[i] = s
		if tr != nil {
			ts := newTracedStore(s, tr)
			t.traced = append(t.traced, ts)
			roles[i] = ts
		}
	}
	t.mgr = server.NewManager(server.Config{Store: roles[0], Role: server.RoleCoordinator})
	t.srv = httptest.NewServer(server.NewHandler(t.mgr))
	t.api = newAPIClient(t.srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	for i := 1; i < len(roles); i++ {
		t.workers.Add(1)
		go func(i int) {
			defer t.workers.Done()
			_ = server.RunWorker(ctx, server.WorkerConfig{Store: roles[i], ID: fmt.Sprintf("worker-%d", i), Workers: 1})
		}(i)
	}
	return t, nil
}

func (t *topology) stop() {
	if t.cancel != nil {
		t.cancel()
		t.workers.Wait()
	}
	if t.api != nil {
		t.api.close()
	}
	if t.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = t.mgr.Shutdown(ctx)
		cancel()
	}
	if t.srv != nil {
		t.srv.Close()
	}
	for _, s := range t.shared {
		_ = s.Close()
	}
	_ = os.RemoveAll(t.dir)
}

// reselectOp is one append + re-selection as the client saw it.
type reselectOp struct {
	version       int
	rows          int // rows of the version the job selected on
	append, total float64
	view          server.JobView
	stream        *stream
}

func reselectJobBody(dsID string, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"dataset_id":%q,"algorithm":"fosc","label_fraction":%v,"folds":%d,"seed":%d}`,
		dsID, labelFrac, nFolds, seed))
}

// selectOnce submits a dataset job and follows it to its terminal state.
func (t *topology) selectOnce(seed int64) (server.JobView, *stream, error) {
	var view server.JobView
	if err := t.api.do("POST", "/v1/jobs", reselectJobBody(t.dsID, seed), "application/json", http.StatusAccepted, &view); err != nil {
		return view, nil, err
	}
	st, err := t.api.follow(view.ID)
	if err != nil {
		return view, nil, err
	}
	err = t.api.do("GET", "/v1/jobs/"+view.ID, nil, "", http.StatusOK, &view)
	return view, st, err
}

func runReselect(c config) (*outcome, error) {
	out := &outcome{}
	pool := genMixture(c.seed, nRows+appendRows*400, nDims, nClasses)
	out.sizes = map[string]any{"n": nRows, "d": nDims, "classes": nClasses, "folds": nFolds,
		"grid": "FOSC-OPTICSDend MinPts {3..24 step 3}", "label_frac": labelFrac,
		"append_rows": appendRows, "workers": 2, "worker_concurrency": 1, "supervision": "stable labels"}

	if !c.trace {
		t, setup, err := reselectSetup(c, pool, nil, out)
		if err != nil {
			return nil, err
		}
		resetPeakRSS()
		ops := reselectPhase(c, t, pool, nil, c.seconds, out)
		out.set("peak_rss_mb", "MB", peakRSSMB(), 1)
		t.stop()
		checkReselect(c, pool, ops, out)
		tot := opTotals(ops)
		out.setSamples(tot)
		out.set("setup_s", "s", setup, reselectTopologies)
		return out, nil
	}

	plainT, _, err := reselectSetup(c, pool, nil, out)
	if err != nil {
		return nil, err
	}
	plain := reselectPhase(c, plainT, pool, nil, c.seconds/2, out)
	plainT.stop()
	checkReselect(c, pool, plain, out)

	tr := newTracer()
	t, _, err := reselectSetup(c, pool, tr, out)
	if err != nil {
		return nil, err
	}
	sizeBefore := dirSize(t.dir)
	before := scrape()
	ops := reselectPhase(c, t, pool, tr, c.seconds/2, out)
	after := scrape()
	walBytes := dirSize(t.dir) - sizeBefore
	t.stop()
	checkReselect(c, pool, ops, out)

	layers := zeroLayers()
	n := float64(len(ops))
	var qw, run, obs, app, shardMs, pollWait []float64
	var shards, reused, computed float64
	for _, op := range ops {
		app = append(app, op.append)
		v := op.view
		if v.Started != nil && v.Finished != nil {
			qw = append(qw, ms(v.Started.Sub(v.Created)))
			run = append(run, ms(v.Finished.Sub(*v.Started)))
			obs = append(obs, ms(op.stream.seen.Sub(*v.Finished)))
		}
		var lastDone time.Time
		for sh, done := range op.stream.shardDone {
			shards++
			if leased, ok := op.stream.shardLeased[sh]; ok {
				shardMs = append(shardMs, ms(done.Sub(leased)))
			}
			if done.After(lastDone) {
				lastDone = done
			}
		}
		if !lastDone.IsZero() {
			pollWait = append(pollWait, ms(op.stream.seen.Sub(lastDone)))
		}
		if v.Result != nil {
			reused += float64(v.Result.CellsReused)
			computed += float64(v.Result.CellsComputed)
		}
	}
	layers["client.ack_ms.p50"] = median(app)
	if layers["dataset.decode_s"], err = decodeTime(csvRows(pool.x[:nRows], pool.y[:nRows])); err != nil {
		return nil, err
	}
	layers["server.queue_wait_ms.p50"] = median(qw)
	layers["server.queue_wait_ms.p90"] = quantile(qw, 0.9)
	layers["server.run_ms.p50"] = median(run)
	layers["server.observe_lag_ms.p50"] = median(obs)
	storeLayers(layers, collectStores(t.traced...), before, after, n)
	layers["store.wal_bytes_per_job"] = float64(walBytes) / n
	engineLayers(layers, before, after, n)
	layers["dist.shards"] = shards / n
	layers["dist.shard_ms.p50"] = median(shardMs)
	layers["dist.poll_wait_ms.p50"] = median(pollWait)
	if reused+computed > 0 {
		layers["cellcache.reuse_frac"] = reused / (reused + computed)
	}
	layers["trace.overhead_ms"] = mean(opTotals(ops)) - mean(opTotals(plain))
	layers["trace.spans"] = float64(len(tr.closed()))
	tr.dump(traceDir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	setLayers(out, layers)
	return out, nil
}

func opTotals(ops []reselectOp) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.total
	}
	return out
}

// reselectSetup builds reselectTopologies topologies (keeping the last),
// each through dataset registration and the first full selection that
// fills the cell cache, and returns the median set-up time.
func reselectSetup(c config, pool mixture, tr *tracer, out *outcome) (*topology, float64, error) {
	var (
		t     *topology
		walls []float64
	)
	reps := reselectTopologies
	if c.trace {
		reps = 1
	}
	body, err := json.Marshal(map[string]any{"name": "mixture", "has_label": true, "csv": csvRows(pool.x[:nRows], pool.y[:nRows])})
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < reps; i++ {
		if t != nil {
			t.stop()
		}
		t0 := time.Now()
		if t, err = startTopology(tr); err != nil {
			return nil, 0, err
		}
		var dv server.DatasetView
		if err := t.api.do("POST", "/v1/datasets", body, "application/json", http.StatusCreated, &dv); err != nil {
			t.stop()
			return nil, 0, err
		}
		t.dsID, t.rows = dv.ID, dv.Rows
		view, st, err := t.selectOnce(c.seed)
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if i == reps-1 {
			out.attempted++
			checkReselect(c, pool, []reselectOp{{version: dv.Version, rows: dv.Rows, view: view, stream: st}}, out)
		}
	}
	return t, median(walls), nil
}

// reselectPhase runs the closed loop: append appendRows rows, submit a
// dataset job, wait for its terminal state, repeat.
func reselectPhase(c config, t *topology, pool mixture, tr *tracer, seconds float64, out *outcome) []reselectOp {
	var ops []reselectOp
	before := scrape()
	defer func() {
		if n := counterDelta(before, scrape(), "cvcpd_shard_reclaims_total"); n > 0 {
			out.fail("%v shard lease(s) reclaimed", n)
		}
	}()
	start := time.Now()
	for window(start, seconds, len(ops), minSamples) && t.rows+appendRows <= len(pool.x) {
		lo := t.rows
		body := csvRows(pool.x[lo:lo+appendRows], pool.y[lo:lo+appendRows])
		root := tr.begin("reselect", len(ops), -1)
		t0 := time.Now()
		var dv server.DatasetView
		err := t.api.do("POST", "/v1/datasets/"+t.dsID+"/rows", []byte(body), "text/csv", http.StatusOK, &dv)
		appendDone := time.Now()
		tr.record("client.append", len(ops), root, t0, appendDone)
		out.attempted++
		if err != nil {
			out.fail("append: %v", err)
			tr.end(root)
			break
		}
		t.rows = dv.Rows
		view, st, err := t.selectOnce(c.seed)
		tr.record("client.reselect", len(ops), root, appendDone, time.Now())
		tr.end(root)
		if err != nil {
			out.fail("re-selection: %v", err)
			continue
		}
		ops = append(ops, reselectOp{version: dv.Version, rows: dv.Rows, append: ms(appendDone.Sub(t0)),
			total: ms(st.seen.Sub(t0)), view: view, stream: st})
	}
	return ops
}

// checkReselect verifies each re-selection and counts each one that fails
// a check once.
func checkReselect(c config, pool mixture, ops []reselectOp, out *outcome) {
	for _, op := range ops {
		if msg := checkReselectOp(c, pool, op); msg != "" {
			out.fail("version %d: %s", op.version, msg)
		}
	}
}

// checkReselectOp checks that one re-selection ran distributed (at least
// one shard, no lease reclaimed), reused exactly the cells of the folds
// its append left clean, and matches a from-scratch Select with stable
// label supervision on the same version's rows bit for bit. Only the
// first selection of a topology (version 1) computes every cell. It
// returns the first problem found, or "".
func checkReselectOp(c config, pool mixture, op reselectOp) string {
	if len(op.stream.shardDone) == 0 {
		return "no shard ran: the job did not distribute"
	}
	for sh, n := range op.stream.leases {
		if n > 1 {
			return fmt.Sprintf("shard %d leased %d times (reclaimed)", sh, n)
		}
	}
	r := op.view.Result
	if r == nil {
		return fmt.Sprintf("no result (%s: %s)", op.view.Status, op.view.Error)
	}
	cells := len(cvcp.DefaultMinPtsRange) * nFolds
	wantReused := 0
	if op.version > 1 {
		dirty := min(appendRows, nFolds)
		wantReused = cells / nFolds * (nFolds - dirty)
	}
	if r.CellsReused != wantReused || r.CellsComputed != cells-wantReused {
		return fmt.Sprintf("cells computed/reused %d/%d, want %d/%d", r.CellsComputed, r.CellsReused, cells-wantReused, wantReused)
	}
	ds, err := cvcp.NewDataset("mixture", pool.x[:op.rows], pool.y[:op.rows])
	if err != nil {
		return err.Error()
	}
	ref, err := cvcp.Select(context.Background(), cvcp.Spec{
		Dataset:     ds,
		Grid:        cvcp.Grid{{Algorithm: cvcp.FOSCOpticsDend{}, Params: cvcp.DefaultMinPtsRange}},
		Supervision: corecvcp.StableLabels(labelFrac),
		Options:     cvcp.Options{NFolds: nFolds, Seed: c.seed, Workers: runtime.GOMAXPROCS(0)},
	})
	if err != nil {
		return fmt.Sprintf("reference: %v", err)
	}
	return checkView(op.view, ref)
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
