package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lscr"
	"lscr/server"
)

// Endpoint behavior is tested in package lscr/server; these tests cover
// what the command itself owns: KG loading and the listener lifecycle.

const testKG = `
<C> <apr> <X> .
<X> <apr> <P> .
<X> <married> <Amy> .
<C> <may> <P> .
`

// TestServeGracefulShutdown: cancelling the serve context drains the
// listener and returns nil (the SIGINT/SIGTERM path in main).
func TestServeGracefulShutdown(t *testing.T) {
	kg, err := lscr.Load(strings.NewReader(testKG))
	if err != nil {
		t.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(eng, kg)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after context cancellation")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

func TestLoadHelper(t *testing.T) {
	dir := t.TempDir()
	triples := filepath.Join(dir, "kg.nt")
	if err := os.WriteFile(triples, []byte(testKG), 0o644); err != nil {
		t.Fatal(err)
	}
	kg, err := loadKG(triples)
	if err != nil || kg.NumVertices() != 4 {
		t.Fatalf("triples load: %v", err)
	}
	if _, err := loadKG(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestProvisionDataDir: first boot creates the store from -kg, the
// second opens it without -kg.
func TestProvisionDataDir(t *testing.T) {
	dir := t.TempDir()
	triples := filepath.Join(dir, "kg.nt")
	if err := os.WriteFile(triples, []byte(testKG), 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "store")
	var opts lscr.Options

	if _, err := provision(data, "", opts); err == nil {
		t.Fatal("empty dir without -kg accepted")
	}
	eng, err := provision(data, triples, opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	eng2, err := provision(data, "", opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if n := eng2.KG().NumVertices(); n != 4 {
		t.Fatalf("reopened store has %d vertices, want 4", n)
	}
	if !eng2.Durability().Persistent {
		t.Fatal("reopened engine not persistent")
	}
}
