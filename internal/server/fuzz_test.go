package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzGraphQuery throws arbitrary viewport, zoom and steps query values
// at /api/graph: every request must end in a 200 or a 400, never a panic
// (which the recover middleware would turn into a 500) or another 5xx.
func FuzzGraphQuery(f *testing.F) {
	for _, seed := range [][3]string{
		{"", "", ""},
		{"0,0,100,100", "1", "5"},
		{"-1e6,-1e6,1e6,1e6", "4", "0"},
		{"1e7,1e7,1.1e7,1.1e7", "1024", "1000"},
		{"NaN,NaN,NaN,NaN", "NaN", "1"},
		{"-Inf,-Inf,Inf,Inf", "Inf", "-1"},
		{"5,5,1,1", "0", "1001"},
		{"1,2,3", "-2", "x"},
		{"0,0,1,1", "1e-320", "007"},
		{"0,0,0,0", "1e308", " 3"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	h := New(testView(f)).Handler()
	f.Fuzz(func(t *testing.T, viewport, zoom, steps string) {
		q := url.Values{}
		for k, v := range map[string]string{"viewport": viewport, "zoom": zoom, "steps": steps} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/graph?"+q.Encode(), nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("viewport=%q zoom=%q steps=%q: status %d: %s", viewport, zoom, steps, rec.Code, rec.Body)
		}
	})
}

// FuzzSliceBody posts arbitrary bodies to /api/slice: each must end in a
// 200 or a 400, and whatever slice it left behind must still render, so
// the following GET /api/graph?steps=1 must answer 200.
func FuzzSliceBody(f *testing.F) {
	for _, seed := range []string{
		`{"start":1,"end":5}`,
		`{"start":5,"end":1}`,
		`{"start":0,"end":0}`,
		`{"start":-1e308,"end":1e308}`,
		`{"start":-1e307,"end":1e308}`,
		`{"start":1e18,"end":1.0000001e18}`,
		`{"start":1e-320,"end":5e-324}`,
		`{"start":1e309}`,
		`{"start":"1"}`,
		`{"start":1,"end":5,"x":[]}`,
		`{}`,
		`[]`,
		``,
		`{"start":1`,
	} {
		f.Add(seed)
	}
	h := New(testView(f)).Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/slice", strings.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/graph?steps=1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("after slice body %q: graph status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
