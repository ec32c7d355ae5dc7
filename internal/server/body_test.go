package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postRaw(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// overLimitBody is valid JSON for every POST endpoint of a dim-3 index,
// longer than the body limit: only the limit can reject it.
func overLimitBody() []byte {
	pad := strings.Repeat("x", 3*bodyBytesPerCoord+bodySlack)
	return []byte(`{"point":[1,2,3],"k":1,"eps":1,"id":0,"pad":"` + pad + `"}`)
}

// A body beyond the limit is refused with 413 before it is decoded, on
// every endpoint that reads one; the same fields within the limit pass.
func TestOversizedBodyIsRejected(t *testing.T) {
	for _, path := range []string{"/query", "/range", "/insert", "/delete"} {
		s, _ := newExactServer(t, 100)
		if rec := postRaw(s, path, overLimitBody()); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with an over-limit body: %d %s", path, rec.Code, rec.Body.String())
		}
		if rec := postRaw(s, path, []byte(`{"point":[1,2,3],"k":1,"eps":1,"id":0,"pad":"x"}`)); rec.Code != http.StatusOK {
			t.Errorf("%s with the same fields under the limit: %d %s", path, rec.Code, rec.Body.String())
		}
	}
}

// FuzzQueryBody posts arbitrary bodies to /query and /range on a
// coalesced and a plain server over one index. A body is outside input:
// whatever it holds, the server answers 200, 400 or 413 — never a panic
// or a 5xx — and both servers answer alike, neighbor for neighbor.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"point":[1,2,3],"k":2}`,
		`{"point":[1,2,3],"eps":1.5}`,
		`{"point":[1,2]}`,
		`{"point":[1,2,3,4],"k":1}`,
		`{"point":[1,2,3],"k":0}`,
		`{"point":[1,2,3],"k":-1}`,
		`{"point":[1,2,3],"k":4611686018427387904}`,
		`{"point":[1,2,3],"k":1e30}`,
		`{"point":null,"k":1}`,
		`{"point":[1e39,0,0]}`,
		`{"point":[1,2,3],"eps":-1}`,
		`{"point":[1,2,`,
		`{"point":[1,2,3],"k":1}{"trailing":true} garbage`,
		``,
		`[]`,
		string(overLimitBody()),
	} {
		f.Add([]byte(seed))
	}
	co, plain, _ := newCoalescedServer(f, 200, 8, 100*time.Microsecond)
	defer co.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/range"} {
			got, want := postRaw(co, path, body), postRaw(plain, path, body)
			switch got.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("%s %q: status %d %s", path, body, got.Code, got.Body.String())
			}
			if got.Code != want.Code {
				t.Fatalf("%s %q: coalesced %d, plain %d", path, body, got.Code, want.Code)
			}
			if got.Code != http.StatusOK {
				continue
			}
			var g, w queryResponse
			gerr, werr := json.Unmarshal(got.Body.Bytes(), &g), json.Unmarshal(want.Body.Bytes(), &w)
			if gerr != nil || werr != nil || len(g.Neighbors) != len(w.Neighbors) {
				t.Fatalf("%s %q: coalesced %q, plain %q", path, body, got.Body.String(), want.Body.String())
			}
			for i := range w.Neighbors {
				if g.Neighbors[i] != w.Neighbors[i] {
					t.Fatalf("%s %q: neighbor %d is %+v, plain %+v", path, body, i, g.Neighbors[i], w.Neighbors[i])
				}
			}
		}
	})
}
