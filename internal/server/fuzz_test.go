package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
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
