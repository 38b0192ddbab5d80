package history

import (
	"context"

	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/prefixtree"
	"eris/internal/routing"
)

// CoreClient wraps the in-process engine client API for one object,
// recording every call into a ClientLog. Like the log, it is
// single-goroutine: one wrapper per worker.
//
// Outcome classification: a nil error is ReturnOK. Any error on a write is
// ReturnLost — a batch can split across AEUs and partially apply before
// the error surfaces, so "failed" never proves "had no effect". Errors on
// reads and scans are ReturnErr (an unanswered read constrains nothing).
type CoreClient struct {
	eng *core.Engine
	obj routing.ObjectID
	log *ClientLog
}

// NewCoreClient wraps eng's client API for object obj, recording into log.
func NewCoreClient(eng *core.Engine, obj routing.ObjectID, log *ClientLog) *CoreClient {
	return &CoreClient{eng: eng, obj: obj, log: log}
}

// Lookup records and performs a batched point lookup.
func (c *CoreClient) Lookup(ctx context.Context, keys []uint64) ([]prefixtree.KV, error) {
	t := c.log.rec.Now()
	seq0 := c.log.nextSeq + 1
	for _, k := range keys {
		c.log.invokeKeyAt(t, OpLookup, k, 0)
	}
	kvs, err := c.eng.LookupCtx(ctx, c.obj, keys)
	t2 := c.log.rec.Now()
	if err != nil {
		for i := range keys {
			c.log.returnAt(t2, seq0+uint32(i), OpLookup, ReturnErr)
		}
		return kvs, err
	}
	for i, k := range keys {
		v, found := findKV(kvs, k)
		c.log.returnReadAt(t2, seq0+uint32(i), found, v)
	}
	return kvs, nil
}

// Upsert records and performs a batched upsert.
func (c *CoreClient) Upsert(ctx context.Context, kvs []prefixtree.KV) error {
	t := c.log.rec.Now()
	seq0 := c.log.nextSeq + 1
	for _, kv := range kvs {
		c.log.invokeKeyAt(t, OpUpsert, kv.Key, kv.Value)
	}
	err := c.eng.UpsertCtx(ctx, c.obj, kvs)
	c.closeWrites(seq0, len(kvs), OpUpsert, err)
	return err
}

// Delete records and performs a batched delete.
func (c *CoreClient) Delete(ctx context.Context, keys []uint64) error {
	t := c.log.rec.Now()
	seq0 := c.log.nextSeq + 1
	for _, k := range keys {
		c.log.invokeKeyAt(t, OpDelete, k, 0)
	}
	err := c.eng.DeleteCtx(ctx, c.obj, keys)
	c.closeWrites(seq0, len(keys), OpDelete, err)
	return err
}

func (c *CoreClient) closeWrites(seq0 uint32, n int, op Op, err error) {
	t := c.log.rec.Now()
	kind := ReturnOK
	if err != nil {
		// A batch may have partially applied before the error: lost, not
		// refuted.
		kind = ReturnLost
	}
	for i := 0; i < n; i++ {
		c.log.returnAt(t, seq0+uint32(i), op, kind)
	}
}

// ScanRange records and performs an exact range-scan aggregate.
func (c *CoreClient) ScanRange(ctx context.Context, lo, hi uint64, pred colstore.Predicate) (core.ScanAggregate, error) {
	seq := c.log.InvokeScan(OpScanRange, lo, hi, pred)
	agg, err := c.eng.ScanRangeCtx(ctx, c.obj, lo, hi, pred)
	if err != nil {
		c.log.ReturnErr(seq, OpScanRange)
		return agg, err
	}
	c.log.ReturnAgg(seq, OpScanRange, agg.Matched, agg.Sum)
	return agg, nil
}

// ColScan records and performs a column-scan aggregate. The wrapped
// object must be the column object, not the index.
func (c *CoreClient) ColScan(ctx context.Context, pred colstore.Predicate) (core.ScanAggregate, error) {
	seq := c.log.InvokeScan(OpColScan, 0, 0, pred)
	agg, err := c.eng.ScanCtx(ctx, c.obj, pred)
	if err != nil {
		c.log.ReturnErr(seq, OpColScan)
		return agg, err
	}
	c.log.ReturnAgg(seq, OpColScan, agg.Matched, agg.Sum)
	return agg, nil
}
