package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	support "repro"
)

// FuzzDecodeRequests feeds every /v1 request type a body the process did not
// write, through the decoder the handlers use (decodeBody), and a decoded
// request on through the wire conversions that run before the engine does:
// PatternWire.Pattern, MineWire.MineSpec and engineOptions. Each step must
// return an error or a value, never panic, and a decode error must carry a
// 400 or a 413. No engine runs.
func FuzzDecodeRequests(f *testing.F) {
	for _, body := range []string{
		`{"pattern":{"edge":[1,2]},"measures":["MNI","occurrences"]}`,
		`{"pattern":{"lg":"v 0 1\nv 1 2\nv 2 2\ne 0 1\ne 1 2\n"},"measures":["MI"],"explain":true,"options":{"parallelism":3,"streaming":true}}`,
		`{"pattern":{"lg":"v 0 1\nv 1 2\n"}}`,
		`{"pattern":{"edge":[1,2],"lg":"v 0 1\n"}}`,
		`{"pattern":{"edge":[1,2,3]}}`,
		`{"pattern":{"edge":[-9223372036854775808,9223372036854775807]}}`,
		`{"min_support":5,"max_pattern_size":3,"measure":"MVC","workers":-4,"options":{"parallelism":-1}}`,
		`{"min_support":1e308,"measure":"nope"}`,
		`{"mine":{"min_support":5,"workers":99}}`,
		`{"add_vertices":[{"id":1000,"label":1}],"add_edges":[[1000,1]],"remove_edges":[[1,2]],"remove_vertices":[3]}`,
		`{"options":{"disable_planner":true}}`,
		`{"min_support":1} {"min_support":2}`,
		`{"pattern":`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defaults := support.EngineOptions{Parallelism: 2}
		decode := func(req any) bool {
			w := httptest.NewRecorder()
			err := decodeBody(w, httptest.NewRequest("POST", "/v1", bytes.NewReader(data)), req)
			if err == nil {
				return true
			}
			if se, ok := err.(statusError); !ok || se.code != http.StatusBadRequest && se.code != http.StatusRequestEntityTooLarge {
				t.Fatalf("decoding %q into %T: %#v is no 400 or 413", data, req, err)
			}
			return false
		}
		var eval EvaluateRequest
		if decode(&eval) {
			eval.Pattern.Pattern()
			engineOptions(defaults, eval.Options, 4)
		}
		var mine MineWire
		if decode(&mine) {
			mine.MineSpec(4)
			engineOptions(defaults, mine.Options, 4)
		}
		var open OpenSessionRequest
		if decode(&open) {
			open.Mine.MineSpec(4)
		}
		var mutate MutateRequest
		decode(&mutate)
	})
}
