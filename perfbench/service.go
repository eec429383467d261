package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"parconn"
	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
	"parconn/internal/serve"
)

// service is one stood-up instance of the connectivity service: the graph
// it was built from, the published labeling, the incremental layer, and the
// HTTP server on a loopback port.
type service struct {
	g      *parconn.Graph
	labels []int32
	inc    *parconn.Incremental
	hs     *http.Server
	served chan error
	url    string
}

// close stops the HTTP server and waits for its Serve loop to return.
func (s *service) close() error {
	err := s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// ccRun is what a traced ConnectedComponents call leaves behind.
type ccRun struct {
	dur     time.Duration
	allocMB float64
	trace   *parconn.Trace
}

// label runs ConnectedComponents with the library defaults apart from the
// seed of its random draws. Traced, it attaches an in-memory event trace and
// measures the call's allocation.
func label(g *parconn.Graph, traced bool, seed uint64) ([]int32, ccRun, error) {
	var run ccRun
	opt := parconn.Options{Seed: seed}
	var before runtime.MemStats
	if traced {
		run.trace = parconn.NewTrace()
		opt.Recorder = run.trace
		runtime.ReadMemStats(&before)
	}
	start := now()
	labels, err := parconn.ConnectedComponents(g, opt)
	run.dur = time.Since(start)
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		run.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	return labels, run, err
}

// readGraph opens path and parses it with the library reader for its
// format, buffered as cmd/connserve reads files.
func readGraph(path string, text bool) (*parconn.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if text {
		return parconn.ReadGraph(br)
	}
	return parconn.ReadBinaryGraph(br)
}

// setupResult is one setup: the live service, its wall time from opening
// the file to the first correct answer, and, when traced, the CC run.
type setupResult struct {
	svc *service
	dur time.Duration
	cc  ccRun
}

// standUp brings the service up the way cmd/connserve does by default, in
// this process: read the file, label it with the default algorithm, publish
// through a server with an Observer and a metrics registry, seed the
// incremental layer, listen on loopback, and ask for one vertex's component.
// The labeling uses seed; the answer must be correct. With a tracer the
// handler records request spans, and with tracedSetup as well every setup
// step is a span under one setup span.
func standUp(in *input, text bool, tr *tracer, tracedSetup bool, probe int32, seed uint64) (*setupResult, error) {
	res := &setupResult{}
	handlerTr := tr
	if !tracedSetup {
		tr = nil
	}
	var trace uint64
	if tr != nil {
		trace = tr.newID()
	}
	root := tr.open("setup", trace, 0)
	step := func(name string, fn func() error) error {
		s := tr.open(name, trace, root.ID)
		err := fn()
		tr.finish(s)
		return err
	}
	start := now()
	svc := &service{}
	err := step("graph.read", func() (err error) {
		svc.g, err = readGraph(in.path, text)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", in.path, err)
	}
	if err := step("core.cc", func() (err error) {
		svc.labels, res.cc, err = label(svc.g, tr != nil, seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("labeling: %w", err)
	}
	reg := metrics.New()
	metrics.RegisterRuntime(reg)
	observer := serve.NewObserver(serve.ObserverConfig{
		Metrics:     reg,
		Spans:       obs.NewFlightRecorder(0),
		SampleEvery: 1024, // cmd/connserve's default head-sampling rate
	})
	sv := serve.New(serve.Config{Observer: observer, Metrics: reg})
	step("serve.publish", func() error {
		sv.Publish(serve.Labeling{
			Labels:    svc.labels,
			Edges:     svc.g.NumEdges(),
			Algorithm: parconn.DecompArbHybrid.String(),
			Source:    in.path,
		})
		return nil
	})
	if err := step("incremental.seed", func() (err error) {
		svc.inc, err = parconn.NewIncrementalFromLabels(svc.labels)
		return err
	}); err != nil {
		return nil, fmt.Errorf("seeding incremental layer: %w", err)
	}
	sv.EnableIncremental(svc.inc)
	if err := step("serve.listen", func() error { return svc.listen(handlerTr.wrap(sv.Handler())) }); err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	c := newClient(svc.url, tr)
	defer c.close()
	ok, l, err := c.component(probe, trace, root.ID, "client.first_query")
	switch {
	case err != nil:
		err = fmt.Errorf("first query: %w", err)
	case !ok:
		err = fmt.Errorf("first query for vertex %d failed", probe)
	default:
		k := checker{root: in.root, strict: true, labelOf: map[int32]int32{}}
		err = k.component(probe, l, &clientStats{})
	}
	if err != nil {
		svc.close()
		return nil, err
	}
	res.dur = time.Since(start)
	tr.finish(root)
	res.svc = svc
	return res, nil
}

// listen binds a loopback port and serves h on it.
func (s *service) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return nil
}

// wrap times every traced request inside the service's handler: a request
// whose trace header names a client span gets a serve.handler.<endpoint>
// child span. Untraced requests pass straight through.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := parseRef(r.Header.Get(serve.TraceHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := t.open("serve.handler."+strings.TrimPrefix(r.URL.Path, "/v1/"), trace, parent)
		h.ServeHTTP(w, r)
		t.finish(s)
	})
}
