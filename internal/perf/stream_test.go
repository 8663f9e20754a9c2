package perf

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sysrle/internal/imageio"
	"sysrle/internal/rle"
	"sysrle/internal/server"
)

// diffShape is one /v1/diff request the allocation gate and the
// handler benchmark replay against an in-process server.
type diffShape struct {
	name                string
	maxAllocs, maxBytes int
	serve               func(tb testing.TB) (s *server.Server, diff func())
}

// diffShapes are the two request shapes of the end-to-end benchmark: a
// 1024² similar scan diffed against a stored reference, and a 512²
// random pair uploaded inline. Both ask for format=rleb.
var diffShapes = []diffShape{
	{"ref-similar", 200, 43 << 10, func(tb testing.TB) (*server.Server, func()) {
		pair := generate(tb, "similar", 1024, 1604)
		s := server.New()
		meta, err := s.Refs().Put(pair.A)
		if err != nil {
			tb.Fatal(err)
		}
		return s, diffRequest(tb, s, "/v1/diff?format=rleb&ref="+meta.ID, map[string]*rle.Image{"b": pair.B})
	}},
	{"upload-random", 220, 60 << 10, func(tb testing.TB) (*server.Server, func()) {
		pair := generate(tb, "random", 512, 1605)
		s := server.New()
		return s, diffRequest(tb, s, "/v1/diff?format=rleb", map[string]*rle.Image{"a": pair.A, "b": pair.B})
	}},
}

func generate(tb testing.TB, kind string, side int, seed int64) Pair {
	pair, err := GeneratePair(kind, side, side, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return pair
}

// diffRequest encodes parts "a" (if given) and "b" as RLEB into one
// multipart body and returns a function that posts it to path and
// checks the answer is 200. The function may run on several goroutines
// at once, so it reports a bad answer with Errorf.
func diffRequest(tb testing.TB, s *server.Server, path string, parts map[string]*rle.Image) func() {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, field := range []string{"a", "b"} {
		img, ok := parts[field]
		if !ok {
			continue
		}
		fw, err := mw.CreateFormFile(field, field+".rleb")
		if err != nil {
			tb.Fatal(err)
		}
		if err := imageio.Write(fw, "rleb", img); err != nil {
			tb.Fatal(err)
		}
	}
	mw.Close()
	return func() {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body.Bytes()))
		req.Header.Set("Content-Type", mw.FormDataContentType())
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Errorf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestDiffHandlerStreamAllocs gates the streamed /v1/diff path. Each
// upload is read once, into a pooled buffer, and an RLEB part is
// decoded one row at a time straight from it; its rows, valid by
// construction, skip the engines' operand check, and a format=rleb
// answer is encoded as it goes into a second pooled buffer. Neither
// operand nor the difference is built as an rle.Image. The ref-routed
// 1024² similar scan costs ~162 allocations and ~35 KB, the inline
// 512² random pair ~177 and ~49 KB (go1.24, amd64), most of it the
// multipart reader and the recorder's copy of the answer; the bounds
// leave ~25% headroom. Running the handler under http.TimeoutHandler,
// which copied the answer into its own buffer, cost ~171 and ~50 KB
// and ~186 and ~77 KB; reading the form into its own buffers and
// copying each part out again cost ~310 and ~285 KB; decoding the
// scan into an image would add ~440 KB (30k runs and 1024 row
// headers). Each breaks the byte bounds.
func TestDiffHandlerStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	for _, shape := range diffShapes {
		t.Run(shape.name, func(t *testing.T) {
			s, diff := shape.serve(t)
			defer s.Close()
			allocs := testing.AllocsPerRun(10, diff)
			// One P, as AllocsPerRun measures: a pooled buffer left in
			// another P's private slot would be allocated afresh.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				diff()
			}
			runtime.ReadMemStats(&after)
			bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s rleb diff: %.0f allocs, %d B per request", shape.name, allocs, bytesPer)
			if allocs > float64(shape.maxAllocs) {
				t.Errorf("%.0f allocs per request, want ≤ %d", allocs, shape.maxAllocs)
			}
			if bytesPer > uint64(shape.maxBytes) {
				t.Errorf("%d B allocated per request, want ≤ %d", bytesPer, shape.maxBytes)
			}
		})
	}
}

// BenchmarkDiffHandler times one /v1/diff through the whole in-process
// handler stack for each shape, one request at a time and, in the
// /parallel variants, GOMAXPROCS requests at a time on one server, so
// that contention between requests (on shared telemetry series, the
// buffer pools, the reference store) shows in ns/op:
//
//	go test -run '^$' -bench DiffHandler -benchmem ./internal/perf/
func BenchmarkDiffHandler(b *testing.B) {
	for _, shape := range diffShapes {
		b.Run(shape.name, func(b *testing.B) {
			s, diff := shape.serve(b)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				diff()
			}
		})
		b.Run(shape.name+"/parallel", func(b *testing.B) {
			s, diff := shape.serve(b)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					diff()
				}
			})
		})
	}
}
