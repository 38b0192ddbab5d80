package server

import (
	"errors"
	"fmt"
	"testing"

	"eris/internal/core"
	"eris/internal/metrics"
	"eris/internal/wire"
)

// TestErrMsgRejectCode checks the reject code a TError carries for the
// errors the serve path can return: the wire sentinels, the engine's
// deadline error, each possibly wrapped, and anything else.
func TestErrMsgRejectCode(t *testing.T) {
	c := &conn{s: &Server{errors: metrics.NewRegistry().Counter("server.errors")}}
	for _, tc := range []struct {
		err  error
		code uint8
	}{
		{wire.ErrOverloaded, wire.CodeOverloaded},
		{fmt.Errorf("admit: %w", wire.ErrDeadlineExceeded), wire.CodeDeadlineExceeded},
		{fmt.Errorf("lookup: %w", core.ErrDeadlineExceeded), wire.CodeDeadlineExceeded},
		{errors.New("unknown object"), wire.CodeGeneric},
	} {
		m := c.errMsg(tc.err)
		if m.Type != wire.TError || m.Code != tc.code || m.Err != tc.err.Error() {
			t.Errorf("errMsg(%v) = {%v code %d %q}, want {%v code %d %q}",
				tc.err, m.Type, m.Code, m.Err, wire.TError, tc.code, tc.err.Error())
		}
	}
}
