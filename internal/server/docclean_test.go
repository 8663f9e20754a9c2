package server

// Tests for the document-cleanup endpoints: the synchronous
// /v1/docclean report and image modes, and the async
// /v1/jobs?type=docclean batch path on a generated A4 page.

import (
	"io"
	"math/rand"
	"net/http"
	"testing"

	"sysrle/internal/docclean"
	"sysrle/internal/imageio"
	"sysrle/internal/jobs"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

// testPage is the controlled cleanup fixture: a 20×10 solid block, a
// full-width 2px rule, and three 1px specks.
func testPage(t *testing.T) *rle.Image {
	t.Helper()
	img := rle.NewImage(80, 48)
	for y := 10; y < 20; y++ {
		img.Rows[y] = rle.Row{rle.Span(10, 29)}
	}
	img.Rows[30] = rle.Row{rle.Span(0, 79)}
	img.Rows[31] = rle.Row{rle.Span(0, 79)}
	for _, p := range [][2]int{{5, 3}, {70, 5}, {40, 44}} {
		img.Rows[p[1]] = rle.Normalize(append(img.Rows[p[1]], rle.Span(p[0], p[0])))
	}
	return img
}

const docCleanQuery = "?max-speckle=4&min-line=40&close-x=5&close-y=3&min-block=10"

func TestDocCleanEndpointJSON(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"image": testPage(t)})
	resp, err := http.Post(srv.URL+"/v1/docclean"+docCleanQuery, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Sysrle-Speckles-Removed"); got != "3" {
		t.Errorf("speckles header %q, want 3", got)
	}
	var rep docclean.Result
	decodeJSON(t, resp, &rep)
	if rep.SpecklesRemoved != 3 || rep.LinesH != 1 || rep.LinesV != 0 {
		t.Errorf("report %+v", rep)
	}
	if len(rep.Blocks) != 1 || rep.Blocks[0].X0 != 10 || rep.Blocks[0].Y1 != 19 {
		t.Errorf("blocks %+v", rep.Blocks)
	}
	if rep.OutputArea != 200 {
		t.Errorf("output area %d, want the 20x10 block's 200", rep.OutputArea)
	}
}

func TestDocCleanEndpointImage(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"image": testPage(t)})
	resp, err := http.Post(srv.URL+"/v1/docclean"+docCleanQuery+"&format=rleb", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	cleaned, err := imageio.Read(resp.Body)
	if err != nil {
		t.Fatalf("decoding cleaned page: %v", err)
	}
	// Specks and the rule are gone; the block survives untouched.
	if cleaned.Area() != 200 || !cleaned.Get(10, 10) || cleaned.Get(0, 30) || cleaned.Get(5, 3) {
		t.Errorf("cleaned page wrong: area %d", cleaned.Area())
	}
	if got := resp.Header.Get("X-Sysrle-Blocks"); got != "1" {
		t.Errorf("blocks header %q, want 1", got)
	}
}

func TestDocCleanEndpointErrors(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	page := testPage(t)
	for _, c := range []struct {
		name, query string
		files       map[string]*rle.Image
	}{
		{"bad param", "?max-speckle=-1", map[string]*rle.Image{"image": page}},
		{"bad keep-lines", "?keep-lines=maybe", map[string]*rle.Image{"image": page}},
		{"bad format", "?format=tiff", map[string]*rle.Image{"image": page}},
		{"missing image", "", map[string]*rle.Image{"picture": page}},
	} {
		body, ctype := multipartBody(t, "pbm", c.files)
		resp, err := http.Post(srv.URL+"/v1/docclean"+c.query, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func TestDocCleanJobEndToEnd(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 2})
	page, err := workload.GenerateDocument(rand.New(rand.NewSource(1999)), workload.A4Doc())
	if err != nil {
		t.Fatal(err)
	}
	body, ctype := jobForm(t, []*rle.Image{page, testPage(t)}, nil)
	resp, err := http.Post(srv.URL+"/v1/jobs?type=docclean", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	var st jobs.Status
	decodeJSON(t, resp, &st)
	if st.Type != jobs.TypeDocClean || st.Engine != "" {
		t.Errorf("snapshot type %q engine %q", st.Type, st.Engine)
	}
	final := pollJob(t, srv.URL, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s (error %q)", final.State, final.Error)
	}
	a4 := final.Results[0]
	if a4.SpecklesRemoved < 100 || a4.LinesH < 3 || a4.Blocks < 2 || a4.OutputArea >= page.Area() {
		t.Errorf("A4 result implausible: %+v", a4)
	}
}

func TestDocCleanJobSubmitErrors(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	page := testPage(t)
	for _, c := range []struct {
		name, query string
	}{
		{"unknown type", "?type=transmogrify"},
		{"docclean with engine", "?type=docclean&engine=lockstep"},
		{"docclean with bad param", "?type=docclean&close-x=-2"},
		{"docclean with ref id", "?type=docclean&ref=deadbeef"},
	} {
		body, ctype := jobForm(t, []*rle.Image{page}, nil)
		resp, err := http.Post(srv.URL+"/v1/jobs"+c.query, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}
