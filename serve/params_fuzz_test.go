package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzTransformParams drives the HTTP parameter surface — up to two p.<name>
// bindings and up to two where= predicates, any text in any of them — through
// a caching server and a server with the result cache disabled. Neither may
// panic or answer 500; the caching server must answer the same URL asked
// twice (a miss, then a hit) with the same status and body, and both must
// equal the uncached answer, so an entry filed under one request never
// answers a different one. The servers live across inputs: a collision with
// any earlier input's cache entry shows as a disagreement.
//
//	go test -run '^$' -fuzz '^FuzzTransformParams$' -fuzztime 30s ./serve
func FuzzTransformParams(f *testing.F) {
	// The collidingRequests pairs, each request followed by its forgery.
	f.Add(uint8(0), "", "", "", "", uint8(2), "deptno >= 10", "deptno < 30")
	f.Add(uint8(0), "", "", "", "", uint8(1), "deptno >= 10;w:deptno < 30", "")
	f.Add(uint8(2), "hi", "30", "lo", "10", uint8(2), "deptno >= $lo", "deptno < $hi")
	f.Add(uint8(1), "hi", "30;p:lo=10", "", "", uint8(2), "deptno >= $lo", "deptno < $hi")
	f.Add(uint8(1), "d", "40", "", "", uint8(1), "deptno = $d", "")
	f.Add(uint8(1), "d", "ACCOUNTING", "", "", uint8(1), "dname = $d", "")

	_, cached := newDeptServer(f, Config{})
	_, uncached := newDeptServer(f, Config{CacheCapacity: -1})
	f.Cleanup(func() { cached.Close(); uncached.Close() })
	hc, hu := cached.Handler(), uncached.Handler()

	f.Fuzz(func(t *testing.T, nParams uint8, n1, v1, n2, v2 string, nWhere uint8, w1, w2 string) {
		q := url.Values{}
		for _, p := range [][2]string{{n1, v1}, {n2, v2}}[:nParams%3] {
			q.Add("p."+p[0], p[1])
		}
		for _, w := range []string{w1, w2}[:nWhere%3] {
			q.Add("where", w)
		}
		target := "/v1/transform/paper?" + q.Encode()
		serve := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("%s: 500 %q", target, rec.Body.String())
			}
			return rec
		}
		first, second, cold := serve(hc), serve(hc), serve(hu)
		if first.Code != second.Code || first.Body.String() != second.Body.String() {
			t.Fatalf("%s asked twice: %d %q (cache %q), then %d %q (cache %q)", target,
				first.Code, first.Body.String(), first.Header().Get("X-Xsltd-Cache"),
				second.Code, second.Body.String(), second.Header().Get("X-Xsltd-Cache"))
		}
		if first.Code != cold.Code || first.Body.String() != cold.Body.String() {
			t.Fatalf("%s: caching server answered %d %q (cache %q), uncached %d %q", target,
				first.Code, first.Body.String(), first.Header().Get("X-Xsltd-Cache"),
				cold.Code, cold.Body.String())
		}
	})
}
