package history

import (
	"context"

	"eris/internal/client"
	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

// WireClient wraps one eriswire client connection for one object,
// recording every call into a ClientLog. Single-goroutine, like the log;
// outcome classification matches CoreClient (write errors are Lost — the
// server may have executed a request whose response was lost).
type WireClient struct {
	c   *client.Client
	obj uint32
	log *ClientLog
}

// NewWireClient wraps c's calls against object obj, recording into log.
func NewWireClient(c *client.Client, obj uint32, log *ClientLog) *WireClient {
	return &WireClient{c: c, obj: obj, log: log}
}

// Lookup records and performs a batched point lookup.
func (w *WireClient) Lookup(ctx context.Context, keys []uint64) ([]prefixtree.KV, error) {
	t := w.log.rec.Now()
	seq0 := w.log.nextSeq + 1
	for _, k := range keys {
		w.log.invokeKeyAt(t, OpLookup, k, 0)
	}
	kvs, err := w.c.LookupCtx(ctx, w.obj, keys)
	t2 := w.log.rec.Now()
	if err != nil {
		for i := range keys {
			w.log.returnAt(t2, seq0+uint32(i), OpLookup, ReturnErr)
		}
		return kvs, err
	}
	for i, k := range keys {
		v, found := findKV(kvs, k)
		w.log.returnReadAt(t2, seq0+uint32(i), found, v)
	}
	return kvs, nil
}

// Upsert records and performs a batched upsert.
func (w *WireClient) Upsert(ctx context.Context, kvs []prefixtree.KV) error {
	t := w.log.rec.Now()
	seq0 := w.log.nextSeq + 1
	for _, kv := range kvs {
		w.log.invokeKeyAt(t, OpUpsert, kv.Key, kv.Value)
	}
	err := w.c.UpsertCtx(ctx, w.obj, kvs)
	w.closeWrites(seq0, len(kvs), OpUpsert, err)
	return err
}

// Delete records and performs a batched delete.
func (w *WireClient) Delete(ctx context.Context, keys []uint64) error {
	t := w.log.rec.Now()
	seq0 := w.log.nextSeq + 1
	for _, k := range keys {
		w.log.invokeKeyAt(t, OpDelete, k, 0)
	}
	err := w.c.DeleteCtx(ctx, w.obj, keys)
	w.closeWrites(seq0, len(keys), OpDelete, err)
	return err
}

func (w *WireClient) closeWrites(seq0 uint32, n int, op Op, err error) {
	t := w.log.rec.Now()
	kind := ReturnOK
	if err != nil {
		kind = ReturnLost
	}
	for i := 0; i < n; i++ {
		w.log.returnAt(t, seq0+uint32(i), op, kind)
	}
}

// ScanRange records and performs an exact range-scan aggregate.
func (w *WireClient) ScanRange(ctx context.Context, lo, hi uint64, pred colstore.Predicate) (client.ScanAggregate, error) {
	seq := w.log.InvokeScan(OpScanRange, lo, hi, pred)
	agg, err := w.c.ScanRangeCtx(ctx, w.obj, lo, hi, pred)
	if err != nil {
		w.log.ReturnErr(seq, OpScanRange)
		return agg, err
	}
	w.log.ReturnAgg(seq, OpScanRange, agg.Matched, agg.Sum)
	return agg, nil
}

// ColScan records and performs a column-scan aggregate against a column
// object.
func (w *WireClient) ColScan(ctx context.Context, pred colstore.Predicate) (client.ScanAggregate, error) {
	seq := w.log.InvokeScan(OpColScan, 0, 0, pred)
	agg, err := w.c.ColScanCtx(ctx, w.obj, pred)
	if err != nil {
		w.log.ReturnErr(seq, OpColScan)
		return agg, err
	}
	w.log.ReturnAgg(seq, OpColScan, agg.Matched, agg.Sum)
	return agg, nil
}
