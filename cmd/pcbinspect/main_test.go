package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sysrle/internal/imageio"
	"sysrle/internal/server"
)

// smallBoard keeps the smoke tests fast.
var smallBoard = []string{"-width", "200", "-height", "150", "-seed", "3"}

func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append([]string{"-defects", "4"}, smallBoard...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"board 200x150", "injected", "defect"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestRunCleanBoard(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append([]string{"-defects", "0"}, smallBoard...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "injected 0 defect(s)") {
		t.Errorf("clean board not reported: %q", stdout.String())
	}
}

func TestRunSavesArtwork(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.pbm")
	scanPath := filepath.Join(dir, "scan.pbm")
	var stdout, stderr bytes.Buffer
	args := append([]string{"-defects", "2", "-save-ref", refPath, "-save-scan", scanPath}, smallBoard...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	ref, err := imageio.ReadFile(refPath)
	if err != nil {
		t.Fatalf("saved reference unreadable: %v", err)
	}
	scan, err := imageio.ReadFile(scanPath)
	if err != nil {
		t.Fatalf("saved scan unreadable: %v", err)
	}
	if ref.Width != 200 || ref.Height != 150 || scan.Width != 200 {
		t.Errorf("saved artwork has wrong shape: ref %dx%d scan %dx%d",
			ref.Width, ref.Height, scan.Width, scan.Height)
	}
}

func TestRunMisalignRecovers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append([]string{"-defects", "0", "-misalign", "2"}, smallBoard...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "auto-registration recovered offset (-2,2)") {
		t.Errorf("registration not recovered:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-engine", "quantum"}, &stdout, &stderr); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag accepted")
	}
	bad := filepath.Join(t.TempDir(), "no-such-dir", "ref.pbm")
	args := append([]string{"-save-ref", bad}, smallBoard...)
	if err := run(args, &stdout, &stderr); err == nil {
		t.Error("unwritable save path accepted")
	}
	if _, err := os.Stat(bad); err == nil {
		t.Error("file created despite error")
	}
}

func TestRunRemoteServer(t *testing.T) {
	srv := server.New()
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	var stdout, stderr bytes.Buffer
	args := append([]string{"-defects", "4", "-server", ts.URL, "-engine", "lockstep"}, smallBoard...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("remote run: %v (stderr: %s)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"remote inspection via", "FAIL:", "engine=systolic-"} {
		if !strings.Contains(out, want) {
			t.Errorf("remote output missing %q in:\n%s", want, out)
		}
	}

	// A clean board passes remotely too.
	stdout.Reset()
	args = append([]string{"-defects", "0", "-server", ts.URL}, smallBoard...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("remote clean run: %v", err)
	}
	if !strings.Contains(stdout.String(), "PASS: no defects") {
		t.Errorf("clean board not reported remotely:\n%s", stdout.String())
	}
}
