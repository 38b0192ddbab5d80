// Package command defines ERIS data commands and their wire format. A data
// command carries a storage operation (scan, lookup, insert/upsert), the
// target data object, a correlation tag and reply address for query
// processing callbacks, and a data segment with the operation's parameters
// (a batch of keys for a lookup, key/value pairs for an upsert, a predicate
// for a scan). Commands are binary-encoded because the routing layer's
// buffers are raw byte arrays guarded by a 64-bit CAS descriptor; the
// encoded size is also what the simulated machine charges as interconnect
// traffic when a buffer is flushed to a remote AEU.
//
// Balancing commands (new partition bounds plus fetch instructions) travel
// through the same buffers, as in the paper; bulk partition payloads do
// not — they move through the dedicated transfer path (see internal/aeu),
// matching the paper's separate link/copy transfer mechanisms.
package command

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

// Op identifies the storage operation of a data command.
type Op uint8

// Data command operations.
const (
	// OpInvalid guards against decoding zeroed buffer space.
	OpInvalid Op = iota
	// OpLookup carries a batch of keys to look up in an index partition.
	OpLookup
	// OpUpsert carries a batch of key/value pairs to insert or overwrite.
	OpUpsert
	// OpScan asks for a filtered scan of the AEU's partition (index range
	// scan when Keys holds [lo, hi], full column scan otherwise).
	OpScan
	// OpResult returns matching key/value pairs (or aggregates) to the
	// requesting AEU's callback.
	OpResult
	// OpBalance tells an AEU its new partition bounds and what to fetch.
	OpBalance
	// OpFetch asks the receiving AEU to hand a range (or tuple count) of
	// its partition to the requester via the transfer path.
	OpFetch
	// OpError reports a failed control command back to its issuer (Tag
	// carries the correlation id — for fetches, the balancing epoch), so
	// the issuer can abandon the pending slot instead of waiting forever.
	OpError
	// OpDelete carries a batch of keys to remove from an index partition.
	OpDelete
	numOps
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpUpsert:
		return "upsert"
	case OpScan:
		return "scan"
	case OpResult:
		return "result"
	case OpBalance:
		return "balance"
	case OpFetch:
		return "fetch"
	case OpError:
		return "error"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// NoReply marks a command whose results are consumed at the executing AEU
// (counted, aggregated into monitors) instead of being routed back.
const NoReply int32 = -1

// Fetch is one transfer instruction inside a balancing command: take the
// described part of From's partition.
type Fetch struct {
	From uint32
	Lo   uint64
	Hi   uint64
	// Tuples > 0 selects count-based transfer (physical size partitioning,
	// no order criterion); the range is ignored then.
	Tuples int64
}

// Balance is the payload of an OpBalance command.
type Balance struct {
	// Epoch identifies the balancing cycle; AEUs ack it so the balancer can
	// synchronize routing-table updates.
	Epoch uint64
	// NewLo/NewHi are the AEU's new inclusive partition bounds.
	NewLo, NewHi uint64
	// Fetches says where missing data comes from.
	Fetches []Fetch
}

// Command is one data command.
type Command struct {
	Op      Op
	Object  uint32
	Source  uint32 // issuing AEU
	ReplyTo int32  // AEU to route results to; NoReply for none
	Tag     uint64 // correlation id for callbacks
	// Deadline is the absolute expiry of the request that issued this
	// command, in unix nanoseconds; zero means no deadline. It rides the
	// header so forwarding and deferral across rebalance cycles preserve
	// it, letting AEUs expire stale work instead of retrying forever.
	Deadline uint64

	// Keys is the lookup batch, or [lo, hi] bounds for an index range scan.
	Keys []uint64
	// KVs is the upsert batch or the result payload.
	KVs []prefixtree.KV
	// Pred is the scan predicate.
	Pred colstore.Predicate
	// Limit asks an index scan to return up to Limit matching rows as
	// key/value pairs instead of an aggregate (0 = aggregate only). This
	// is the query-processing primitive that materializes intermediate
	// results through the routing layer.
	Limit uint32
	// Balance is the balancing payload (OpBalance only).
	Balance *Balance
	// Fetch is the fetch payload (OpFetch only).
	Fetch *Fetch
}

const headerBytes = 1 + 4 + 4 + 4 + 8 + 8 + 4 // op, object, source, replyTo, tag, deadline, payload len

// EncodedSize returns the exact number of bytes AppendEncode will add.
//
//eris:hotpath
func (c *Command) EncodedSize() int {
	return headerBytes + c.payloadSize()
}

// MaxLookupKeys returns the largest lookup key batch whose framed encoding
// (one routing frame byte plus the command) fits in limit bytes, at least
// 1; the routing layer uses it to chunk batches to the outgoing buffer
// capacity at route time.
func MaxLookupKeys(limit int) int {
	n := (limit - 1 - headerBytes - 4) / 8
	if n < 1 {
		return 1
	}
	return n
}

// MaxUpsertKVs is MaxLookupKeys for upsert (and result) KV batches.
func MaxUpsertKVs(limit int) int {
	n := (limit - 1 - headerBytes - 4) / 16
	if n < 1 {
		return 1
	}
	return n
}

//eris:hotpath
func (c *Command) payloadSize() int {
	switch c.Op {
	case OpLookup, OpDelete:
		return 4 + 8*len(c.Keys)
	case OpUpsert, OpResult:
		return 4 + 16*len(c.KVs)
	case OpScan:
		return 1 + 8 + 8 + 4 + 4 + 8*len(c.Keys)
	case OpBalance:
		n := 8 + 8 + 8 + 4
		if c.Balance != nil {
			n += len(c.Balance.Fetches) * (4 + 8 + 8 + 8)
		}
		return n
	case OpFetch:
		return 4 + 8 + 8 + 8
	default:
		return 0
	}
}

// AppendEncode appends the wire form of the command to buf.
//
//eris:hotpath
func (c *Command) AppendEncode(buf []byte) []byte {
	buf = append(buf, byte(c.Op))
	buf = binary.LittleEndian.AppendUint32(buf, c.Object)
	buf = binary.LittleEndian.AppendUint32(buf, c.Source)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.ReplyTo))
	buf = binary.LittleEndian.AppendUint64(buf, c.Tag)
	buf = binary.LittleEndian.AppendUint64(buf, c.Deadline)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.payloadSize()))
	switch c.Op {
	case OpLookup, OpDelete:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Keys)))
		for _, k := range c.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
	case OpUpsert, OpResult:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.KVs)))
		for _, kv := range c.KVs {
			buf = binary.LittleEndian.AppendUint64(buf, kv.Key)
			buf = binary.LittleEndian.AppendUint64(buf, kv.Value)
		}
	case OpScan:
		buf = append(buf, byte(c.Pred.Op))
		buf = binary.LittleEndian.AppendUint64(buf, c.Pred.Operand)
		buf = binary.LittleEndian.AppendUint64(buf, c.Pred.High)
		buf = binary.LittleEndian.AppendUint32(buf, c.Limit)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Keys)))
		for _, k := range c.Keys {
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
	case OpBalance:
		b := c.Balance
		if b == nil {
			b = &Balance{} //eris:allowalloc balance is a control-plane op; placeholder for a nil payload only
		}
		buf = binary.LittleEndian.AppendUint64(buf, b.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, b.NewLo)
		buf = binary.LittleEndian.AppendUint64(buf, b.NewHi)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Fetches)))
		for _, f := range b.Fetches {
			buf = binary.LittleEndian.AppendUint32(buf, f.From)
			buf = binary.LittleEndian.AppendUint64(buf, f.Lo)
			buf = binary.LittleEndian.AppendUint64(buf, f.Hi)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Tuples))
		}
	case OpFetch:
		f := c.Fetch
		if f == nil {
			f = &Fetch{} //eris:allowalloc fetch is a control-plane op; placeholder for a nil payload only
		}
		buf = binary.LittleEndian.AppendUint32(buf, f.From)
		buf = binary.LittleEndian.AppendUint64(buf, f.Lo)
		buf = binary.LittleEndian.AppendUint64(buf, f.Hi)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Tuples))
	}
	return buf
}

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("command: truncated buffer")
	ErrBadOp     = errors.New("command: invalid operation")
)

//eris:hotpath
func decodeCount(p []byte, elem int) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(p))
	rest := p[4:]
	if len(rest) < n*elem {
		return 0, nil, ErrTruncated
	}
	return n, rest, nil
}
