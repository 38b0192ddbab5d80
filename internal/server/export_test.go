package server

import (
	"testing"
	"time"
)

// SetHandshakeTimeout shortens the handshake timeout for one test and
// restores it in t.Cleanup. Call it before starting the server, so the
// restore runs after the server's connections are gone.
func SetHandshakeTimeout(t testing.TB, d time.Duration) {
	old := handshakeTimeout
	handshakeTimeout = d
	t.Cleanup(func() { handshakeTimeout = old })
}
