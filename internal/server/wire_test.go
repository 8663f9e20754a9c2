package server

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"

	"sysrle/internal/rle"
	"sysrle/internal/store"
)

// TestWireGolden pins the /v1 JSON wire format: each answer's key set,
// nested keys included ("a.b" for an object member, "a[].b" for a
// member of an array element), must equal the literal list. Shard,
// coordinator and client share their Go types, so a renamed JSON tag
// would not break a client/server pair; this table does.
func TestWireGolden(t *testing.T) {
	srv, s := durableServer(t, store.NewMemFS())
	defer srv.Close()
	defer s.Close()
	ref, scan, _ := testBoards(t)
	refID := postRef(t, srv.URL, ref)

	// Four good scans seal one audit batch (AuditBatch 4); the
	// mismatched fifth fails, so the job carries an error.
	bad := rle.NewImage(ref.Width+1, ref.Height)
	body, ctype := jobForm(t, []*rle.Image{scan, scan, scan, scan, bad}, nil)
	resp, err := http.Post(srv.URL+"/v1/jobs?ref="+refID, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	submitted := wireBody(t, resp, http.StatusAccepted)
	jobID, _ := submitted["id"].(string)
	pollJob(t, srv.URL, jobID)

	post := func(path string, files map[string]*rle.Image) *http.Response {
		t.Helper()
		body, ctype := multipartBody(t, "rleb", files)
		resp, err := http.Post(srv.URL+path, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	ids := "id,width,height,runs,area,encoded_bytes,decoded_bytes,created"
	queued := "index,clean,defects,diff_pixels,diff_runs,iterations"
	job := "id,state,type,ref_id,engine,scans_total,scans_done,created"
	finished := job + ",started,finished,error,results,results[]." +
		strings.ReplaceAll(queued+",error,audit_id", ",", ",results[].")
	shape := "Area,CX,CY,Width,Height,Aspect,Fill,Orientation,Elongation"
	for _, tc := range []struct {
		name   string
		resp   *http.Response
		status int
		want   string
	}{
		{"inspect", post("/v1/inspect", map[string]*rle.Image{"ref": ref, "scan": scan}), http.StatusOK,
			"engine,rows_compared,rows_differing,diff_pixels,diff_runs,iterations_total," +
				"iterations_max_row,clean,align_dx,align_dy,defects," +
				"defects[].Kind,defects[].Type,defects[].X0,defects[].Y0,defects[].X1,defects[].Y1," +
				"defects[].Area,defects[].Shape,defects[].Shape." +
				strings.ReplaceAll(shape, ",", ",defects[].Shape.")},
		{"align", post("/v1/align", map[string]*rle.Image{"ref": ref, "scan": scan}), http.StatusOK,
			"dx,dy,residual_area"},
		{"docclean", post("/v1/docclean"+docCleanQuery, map[string]*rle.Image{"image": testPage(t)}), http.StatusOK,
			"speckles_removed,lines_h,lines_v,blocks,blocks[].x0,blocks[].y0,blocks[].x1,blocks[].y1," +
				"blocks[].area,input_area,output_area"},
		{"reference get", get("/v1/references/" + refID), http.StatusOK, ids},
		{"reference list", get("/v1/references"), http.StatusOK,
			"references,references[]." + strings.ReplaceAll(ids, ",", ",references[].")},
		// A worker may pick the job up before the 202 snapshot is
		// taken, so keys of a started job may show there too.
		{"job submit", nil, http.StatusAccepted,
			job + ",results,results[]." + strings.ReplaceAll(queued, ",", ",results[].")},
		{"job get", get("/v1/jobs/" + jobID), http.StatusOK, finished},
		{"job list", get("/v1/jobs"), http.StatusOK,
			"jobs,jobs[]." + strings.ReplaceAll(finished, ",", ",jobs[].")},
		{"readyz", get("/readyz"), http.StatusOK, "ready,probes,probes[].name,probes[].ok,probes[].detail"},
		{"audit", get("/v1/audit"), http.StatusOK,
			"chain_head,pending,batches,batches[].seq,batches[].time,batches[].count,batches[].root," +
				"batches[].prev_chain,batches[].chain"},
		{"error envelope", get("/v1/jobs/nope"), http.StatusNotFound,
			"error,error.code,error.message,error.request_id"},
	} {
		doc := submitted
		if tc.resp != nil {
			doc = wireBody(t, tc.resp, tc.status)
		}
		got := wireKeys(doc)
		if tc.resp == nil {
			got = slices.DeleteFunc(got, func(k string) bool {
				return slices.Contains([]string{"started", "finished", "error",
					"results[].error", "results[].audit_id"}, k)
			})
		}
		want := strings.Split(tc.want, ",")
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s keys:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

// wireBody checks the status and decodes a JSON object body.
func wireBody(t *testing.T, resp *http.Response, status int) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != status {
		t.Fatalf("%s: status %d, want %d: %s", resp.Request.URL.Path, resp.StatusCode, status, raw)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v: %s", resp.Request.URL.Path, err, raw)
	}
	return doc
}

// wireKeys flattens a decoded JSON document into its sorted key paths.
func wireKeys(doc map[string]any) []string {
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				path := k
				if prefix != "" {
					path = prefix + "." + k
				}
				set[path] = true
				walk(path, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", doc)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
