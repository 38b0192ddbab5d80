package core

import (
	"fmt"

	"eris/internal/routing"
)

// CheckInvariants verifies the engine-level consistency guarantees of the
// balance/transfer control plane for every data object:
//
//   - the routing table of each range object is well formed — full domain
//     coverage from 0, strictly increasing bounds, ordered ownership (range
//     i owned by AEU i, the layout every balancing plan preserves);
//   - each AEU's partition bounds agree with the published routing table
//     (the last owner's high bound with the domain end), so no key is owned
//     by two AEUs or by none;
//   - every prefix tree's per-node counters are internally consistent;
//   - each size object's holder set is non-empty and every holder actually
//     has a partition.
//
// The checks read partition state without synchronization, so they must run
// on a quiescent engine — before Start or after Stop.
func (e *Engine) CheckInvariants() error {
	for id, meta := range e.objects {
		var err error
		if meta.kind == routing.RangePartitioned {
			err = e.checkRangeObject(id, meta)
		} else {
			err = e.checkSizeObject(id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) checkRangeObject(id routing.ObjectID, meta *objectMeta) error {
	entries := e.router.OwnerEntries(id)
	if len(entries) != len(e.aeus) {
		return fmt.Errorf("core: object %d: %d routing ranges for %d AEUs", id, len(entries), len(e.aeus))
	}
	if entries[0].Low != 0 {
		return fmt.Errorf("core: object %d: routing table starts at %d, not 0", id, entries[0].Low)
	}
	for i, a := range e.aeus {
		en := entries[i]
		if en.Owner != uint32(i) {
			return fmt.Errorf("core: object %d: range %d owned by AEU %d, ordered ownership required", id, i, en.Owner)
		}
		if i > 0 && en.Low <= entries[i-1].Low {
			return fmt.Errorf("core: object %d: range bounds not increasing at %d (%d after %d)", id, i, en.Low, entries[i-1].Low)
		}
		p := a.Partition(id)
		if p == nil {
			return fmt.Errorf("core: object %d: AEU %d has no partition", id, i)
		}
		wantHi := meta.domain - 1
		if i+1 < len(entries) {
			wantHi = entries[i+1].Low - 1
		}
		if p.Lo != en.Low || p.Hi != wantHi {
			return fmt.Errorf("core: object %d: AEU %d bounds [%d,%d] disagree with routing table [%d,%d]",
				id, i, p.Lo, p.Hi, en.Low, wantHi)
		}
		if err := p.Tree.CheckCounts(); err != nil {
			return fmt.Errorf("core: object %d: AEU %d: %w", id, i, err)
		}
	}
	return nil
}

func (e *Engine) checkSizeObject(id routing.ObjectID) error {
	holders := e.router.Holders(id, nil)
	if len(holders) == 0 {
		return fmt.Errorf("core: object %d: empty holder set", id)
	}
	for _, h := range holders {
		if int(h) >= len(e.aeus) {
			return fmt.Errorf("core: object %d: holder %d out of range", id, h)
		}
		if e.aeus[h].Partition(id) == nil {
			return fmt.Errorf("core: object %d: holder %d has no partition", id, h)
		}
	}
	return nil
}
