package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sysrle"
	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
	"sysrle/internal/server"
)

func TestPickEngine(t *testing.T) {
	for name, want := range map[string]string{
		"lockstep":   "systolic-lockstep",
		"channel":    "systolic-channel",
		"sequential": "sequential",
		"bus":        "systolic-bus",
	} {
		e, err := sysrle.NewEngineByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() != want {
			t.Errorf("NewEngineByName(%q).Name() = %q, want %q", name, e.Name(), want)
		}
	}
	if _, err := sysrle.NewEngineByName("warp-drive"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func writeTestImage(t *testing.T, dir, name string, img *rle.Image) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := imageio.Write(f, "pbm", img); err != nil {
		t.Fatal(err)
	}
	return path
}

func testPair(t *testing.T) (string, string, *rle.Image) {
	t.Helper()
	a := rle.NewImage(32, 4)
	b := rle.NewImage(32, 4)
	a.SetRow(1, rle.Row{{Start: 10, Length: 3}, {Start: 16, Length: 2}})
	b.SetRow(1, rle.Row{{Start: 10, Length: 3}, {Start: 18, Length: 2}})
	dir := t.TempDir()
	want, err := rle.XORImage(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return writeTestImage(t, dir, "a.pbm", a), writeTestImage(t, dir, "b.pbm", b), want
}

func TestRunEndToEnd(t *testing.T) {
	pathA, pathB, want := testPair(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-stats", "-format", "rleb", pathA, pathB}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	got, err := imageio.Read(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("diff output wrong")
	}
	if !strings.Contains(stderr.String(), "iterations:") {
		t.Errorf("stats missing: %q", stderr.String())
	}
}

func TestRunToOutputFile(t *testing.T) {
	pathA, pathB, want := testPair(t)
	out := filepath.Join(t.TempDir(), "diff.png")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", out, "-format", "png", pathA, pathB}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Error("stdout written despite -o")
	}
	got, err := imageio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("file output wrong")
	}
}

func TestRunErrors(t *testing.T) {
	pathA, pathB, _ := testPair(t)
	var out, errBuf bytes.Buffer
	cases := [][]string{
		{pathA},                              // missing operand
		{"-engine", "quantum", pathA, pathB}, // bad engine
		{pathA, filepath.Join(t.TempDir(), "missing.pbm")}, // missing file
		{"-format", "bmp", pathA, pathB},                   // bad output format
	}
	for _, args := range cases {
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunRemoteServer(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	pathA, pathB, want := testPair(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-server", ts.URL, "-engine", "lockstep", "-stats", "-format", "rleb", pathA, pathB}, &stdout, &stderr); err != nil {
		t.Fatalf("remote run: %v (stderr: %s)", err, stderr.String())
	}
	got, err := imageio.Read(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("remote diff output wrong")
	}
	if !strings.Contains(stderr.String(), "engine=systolic-") {
		t.Errorf("remote stats missing engine: %q", stderr.String())
	}
}

// TestRunRemoteForwardsEngine checks that -engine reaches the server
// as set, and that leaving it unset leaves the choice to the server.
func TestRunRemoteForwardsEngine(t *testing.T) {
	srv := server.New()
	var mu sync.Mutex
	var sent []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/diff" {
			mu.Lock()
			sent = append(sent, r.URL.Query().Get("engine"))
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	defer func() { ts.Close(); srv.Close() }()

	pathA, pathB, _ := testPair(t)
	for _, c := range []struct{ flag, want, engine string }{
		{"lockstep", "lockstep", "engine=systolic-lockstep "},
		{"planner", "planner", "engine=planner "},
		{"", "", "engine=planner "},
	} {
		mu.Lock()
		sent = nil
		mu.Unlock()
		args := []string{"-server", ts.URL, "-stats", pathA, pathB}
		if c.flag != "" {
			args = append([]string{"-engine", c.flag}, args...)
		}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v (stderr: %s)", args, err, stderr.String())
		}
		mu.Lock()
		if len(sent) != 1 || sent[0] != c.want {
			t.Errorf("-engine %q sent engine=%q, want %q", c.flag, sent, c.want)
		}
		mu.Unlock()
		if !strings.Contains(stderr.String(), c.engine) {
			t.Errorf("-engine %q: stats %q lack %q", c.flag, stderr.String(), c.engine)
		}
	}
}

func TestRunRemoteRef(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	pathA, pathB, want := testPair(t)
	a, err := imageio.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := apiclient.MustNew(ts.URL, apiclient.Options{}).PutReference(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-server", ts.URL, "-ref", meta.ID, "-format", "rleb", pathB}, &stdout, &stderr); err != nil {
		t.Fatalf("ref run: %v (stderr: %s)", err, stderr.String())
	}
	got, err := imageio.Read(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("ref-based diff output wrong")
	}

	// -ref without -server is rejected.
	if err := run([]string{"-ref", meta.ID, pathB}, &stdout, &stderr); err == nil {
		t.Error("-ref without -server accepted")
	}
}
