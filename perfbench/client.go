package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"parconn"
	"parconn/internal/serve"
)

// client is one load-generating user: a single keep-alive connection to the
// service, requests sent one at a time.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	body bytes.Buffer
}

// requestTimeout bounds one request, so a stuck service fails requests
// instead of hanging the run.
const requestTimeout = 30 * time.Second

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: requestTimeout}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request as span name (a child of parent in trace) and
// decodes a 2xx JSON answer into out. A transport error or a non-2xx status
// is a failed request: ok is false and err nil. A 2xx answer that does not
// decode is a wrong answer: err is set.
func (c *client) call(method, path string, body []byte, trace, parent uint64, name string, out any) (ok bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return false, err
	}
	s := c.tr.open(name, trace, parent)
	if c.tr != nil {
		req.Header.Set(serve.TraceHeader, s.ref())
	}
	defer c.tr.finish(s)
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, nil
	}
	c.body.Reset()
	_, rerr := c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode/100 != 2 {
		return false, nil
	}
	if err := json.Unmarshal(c.body.Bytes(), out); err != nil {
		return false, wrongf("%s %s: undecodable answer %q: %v", method, path, c.body.Bytes(), err)
	}
	return true, nil
}

func (c *client) component(v int32, trace, parent uint64, name string) (ok bool, label int32, err error) {
	var out struct {
		V         int32 `json:"v"`
		Component int32 `json:"component"`
	}
	ok, err = c.call(http.MethodGet, "/v1/component?v="+strconv.Itoa(int(v)), nil, trace, parent, name, &out)
	if ok && err == nil && out.V != v {
		err = wrongf("/v1/component?v=%d answered for vertex %d", v, out.V)
	}
	return ok, out.Component, err
}

func (c *client) same(u, v int32, trace, parent uint64, name string) (ok, same bool, err error) {
	var out struct {
		Same bool `json:"same"`
	}
	path := "/v1/same?u=" + strconv.Itoa(int(u)) + "&v=" + strconv.Itoa(int(v))
	ok, err = c.call(http.MethodGet, path, nil, trace, parent, name, &out)
	return ok, out.Same, err
}

// pairsBody encodes edges as the JSON [[u,v],...] body of /v1/batch and
// /v1/insert.
func pairsBody(pairs []parconn.Edge) []byte {
	b := make([]byte, 0, 24*len(pairs))
	b = append(b, '[')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.U), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.V), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

func (c *client) batch(pairs []parconn.Edge, trace, parent uint64, name string) (ok bool, same []bool, err error) {
	var out struct {
		Same []bool `json:"same"`
	}
	ok, err = c.call(http.MethodPost, "/v1/batch", pairsBody(pairs), trace, parent, name, &out)
	if ok && err == nil && len(out.Same) != len(pairs) {
		err = wrongf("/v1/batch of %d pairs answered %d", len(pairs), len(out.Same))
	}
	return ok, out.Same, err
}

func (c *client) insert(edges []parconn.Edge, trace, parent uint64, name string) (ok bool, err error) {
	var out struct {
		Inserted int `json:"inserted"`
	}
	ok, err = c.call(http.MethodPost, "/v1/insert", pairsBody(edges), trace, parent, name, &out)
	if ok && err == nil && out.Inserted != len(edges) {
		err = wrongf("/v1/insert of %d edges reports %d inserted", len(edges), out.Inserted)
	}
	return ok, err
}

func (c *client) components() (ok bool, count int, err error) {
	var out struct {
		Components int `json:"components"`
	}
	ok, err = c.call(http.MethodGet, "/v1/stats", nil, 0, 0, "client.stats", &out)
	return ok, out.Components, err
}
