package main

import (
	"bytes"
	"io"
	"net/http"
)

// recorder is a minimal reusable http.ResponseWriter: the service writes
// straight into it with no socket in between.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.body.Reset()
}

// newRequest builds an in-process request; it is made before the op's
// timed interval starts.
func newRequest(method, target string, body []byte) *http.Request {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		panic(err) // targets are built by the harness
	}
	req.RemoteAddr = "192.0.2.1:40000"
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}
