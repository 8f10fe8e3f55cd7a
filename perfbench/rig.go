package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"svrdb/internal/core"
	"svrdb/internal/relation"
	"svrdb/internal/server"
	"svrdb/internal/storage/buffer"
	"svrdb/internal/storage/pagefile"
	"svrdb/internal/view"
)

// rig is one workload's system under test: engines behind the real HTTP
// API on loopback, loaded and indexed through that API.
type rig struct {
	spec    *workloadSpec
	path    string // durable page file; empty for in-memory engines
	engines []*core.Engine
	srv     *server.Server // single-engine front end, or
	router  *server.Router // the router over in-process shards
	baseURL string
	client  *http.Client // measured traffic: at most conns connections
	admin   *http.Client // loading and index builds, which may run long
	t       setupTimes
}

// setupTimes splits one set-up.
type setupTimes struct {
	total, gen, load, build, open time.Duration
}

// setupTimeout bounds one loading or index-building request.
const setupTimeout = 2 * time.Minute

// docSpec ranks documents by their own score column, so the update trace
// maps one to one onto structured updates.
func docSpec() view.Spec {
	return view.Spec{Components: []view.Component{view.OwnColumn(tableName, "score")}}
}

// newClient returns a loopback client that never holds more than conns
// connections, all kept alive between requests.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and decodes a 2xx reply into out (when non-nil). It
// returns the reply's size.
func post(client *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(b), fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return len(b), fmt.Errorf("POST %s: decoding reply: %w", url, err)
		}
	}
	return len(b), nil
}

// newEngine creates one empty engine for the workload with the table made
// in-process (the API has no create-table endpoint).
func (r *rig) newEngine(poolPages int) (*core.Engine, error) {
	var e *core.Engine
	if r.path != "" {
		var err error
		e, err = core.Open(r.path, r.openOptions(poolPages))
		if err != nil {
			return nil, err
		}
	} else {
		file, err := pagefile.NewMem(pagefile.DefaultPageSize)
		if err != nil {
			return nil, err
		}
		pool, err := buffer.New(file, poolPages)
		if err != nil {
			return nil, err
		}
		e = core.NewEngine(relation.NewDB(pool), core.Options{})
		e.RegisterSpec(specName, docSpec())
	}
	if _, err := e.DB().CreateTable(docsSchema()); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// openOptions opens the workload's durable file. Pages are 8 KiB like the
// in-memory file's: a document row does not fit a 4 KiB page's B+-tree entry.
func (r *rig) openOptions(poolPages int) core.OpenOptions {
	return core.OpenOptions{
		Specs:     map[string]view.Spec{specName: docSpec()},
		PoolPages: poolPages,
		PageSize:  pagefile.DefaultPageSize,
	}
}

// serve puts the rig's engines behind a freshly started front end.
func (r *rig) serve() error {
	var (
		addr string
		err  error
	)
	if r.spec.shards == 0 {
		r.srv = server.New(r.engines[0], server.Options{})
		addr, err = r.srv.Start("127.0.0.1:0")
	} else {
		backends := make([]server.Backend, len(r.engines))
		for i, e := range r.engines {
			backends[i] = server.NewEngineBackend(fmt.Sprintf("shard-%d", i), e, true)
		}
		r.router, err = server.NewRouter(backends, server.RouterOptions{})
		if err != nil {
			return err
		}
		addr, err = r.router.Start("127.0.0.1:0")
	}
	r.baseURL = "http://" + addr
	return err
}

// shutdown drains the front end and closes the engines, which audits the
// buffer pool's pins; an error here is a failure of the run.
func (r *rig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	switch {
	case r.srv != nil:
		err = r.srv.Shutdown(ctx)
	case r.router != nil:
		err = r.router.Shutdown(ctx)
	}
	r.srv, r.router = nil, nil
	r.client.CloseIdleConnections()
	r.admin.CloseIdleConnections()
	return err
}

// close shuts the rig down and removes its files.
func (r *rig) close() error {
	err := r.shutdown()
	if r.path != "" {
		// The data file and its WAL go now to free the disk; anything left
		// goes with the run's work directory.
		_ = os.RemoveAll(filepath.Dir(r.path))
	}
	return err
}

// setUp generates the inputs and builds the workload's system through the
// API: create the table in-process, load the rows, create the index, and for
// a reopened workload close and reopen the file with the serving pool. It
// returns the rig serving on loopback.
func setUp(spec *workloadSpec, seed int64, workDir string, conns int) (*rig, *inputs, error) {
	start := time.Now()
	in := genInputs(seed, spec.termScores)
	r := &rig{spec: spec, client: newClient(conns), admin: &http.Client{Timeout: setupTimeout}}
	r.t.gen = time.Since(start)
	if spec.durable {
		dir, err := os.MkdirTemp(workDir, spec.name+"-")
		if err != nil {
			return nil, nil, err
		}
		r.path = filepath.Join(dir, "data.svrdb")
	}
	for i := 0; i < max(1, spec.shards); i++ {
		e, err := r.newEngine(poolPages)
		if err != nil {
			r.closeEngines()
			return nil, nil, err
		}
		r.engines = append(r.engines, e)
	}
	if err := r.serve(); err != nil {
		r.closeEngines()
		return nil, nil, err
	}
	fail := func(err error) (*rig, *inputs, error) {
		r.close()
		return nil, nil, err
	}

	t := time.Now()
	chunks, err := in.rowChunks()
	if err != nil {
		return fail(err)
	}
	for _, c := range chunks {
		if _, err := post(r.admin, r.baseURL+"/v1/tables/"+tableName+"/rows", c, nil); err != nil {
			return fail(err)
		}
	}
	r.t.load = time.Since(t)

	t = time.Now()
	body, _ := json.Marshal(server.CreateIndexRequest{
		Name: indexName, Table: tableName, Column: "body", Method: string(spec.method), Spec: specName,
	})
	if _, err := post(r.admin, r.baseURL+"/v1/indexes", body, nil); err != nil {
		return fail(err)
	}
	r.t.build = time.Since(t)

	if spec.reopen {
		if err := r.shutdown(); err != nil {
			return fail(err)
		}
		t = time.Now()
		e, err := core.Open(r.path, r.openOptions(spec.servePool))
		if err != nil {
			return fail(err)
		}
		r.t.open = time.Since(t)
		r.engines = []*core.Engine{e}
		if err := r.serve(); err != nil {
			return fail(err)
		}
	}
	r.t.total = time.Since(start)
	return r, in, nil
}

// closeEngines closes engines that never got a front end.
func (r *rig) closeEngines() {
	for _, e := range r.engines {
		e.Close()
	}
}

// textIndexes returns each engine's text index, in shard order.
func (r *rig) textIndexes() ([]*core.TextIndex, error) {
	out := make([]*core.TextIndex, len(r.engines))
	for i, e := range r.engines {
		ti, err := e.TextIndex(indexName)
		if err != nil {
			return nil, err
		}
		out[i] = ti
	}
	return out, nil
}

// storeBytes is the size of every page file of the rig.
func (r *rig) storeBytes() int64 {
	var n int64
	for _, e := range r.engines {
		f := e.Pool().File()
		n += int64(f.NumPages()) * int64(f.PageSize())
	}
	return n
}

// searchURL is the search endpoint of the workload's index.
func (r *rig) searchURL() string { return r.baseURL + "/v1/indexes/" + indexName + "/search" }
