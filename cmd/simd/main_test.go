package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeadersDisconnected: a client that opens a connection and
// never finishes its request headers is disconnected once
// readHeaderTimeout has passed, not held open.
func TestStalledHeadersDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /jobs HTTP/1.1\r\nHost: simd\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	conn.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open %v after the stalled headers began: %v", readHeaderTimeout+slack, err)
	}
	if d := time.Since(start); d < readHeaderTimeout {
		t.Fatalf("disconnected after %v, before the %v header timeout", d, readHeaderTimeout)
	}
}
