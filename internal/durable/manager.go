package durable

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eris/internal/faults"
	"eris/internal/metrics"
	"eris/internal/prefixtree"
)

// Object kinds as persisted in checkpoints (decoupled from the routing
// package so durable stays a leaf dependency of the AEU layer).
const (
	KindRange byte = 0 // range-partitioned prefix-tree index
	KindSize  byte = 1 // size-partitioned column
)

// ObjectMeta describes one data object in a checkpoint.
type ObjectMeta struct {
	ID     uint32
	Kind   byte
	Domain uint64 // exclusive key-domain bound (range objects)
	Name   string // public object name ("" for engine-level tests)
}

// LinkRange records one applied transfer into a partition: the transfer id
// (the source's handoff sequence number) and the moved key range. The set
// is persisted in checkpoints so recovery can tell "this link is already
// inside the image" from "this link never happened".
type LinkRange struct {
	Xid, Lo, Hi uint64
}

// TreeImage is one AEU's checkpoint image of one range partition.
type TreeImage struct {
	Obj   uint32
	KVs   []prefixtree.KV
	Links []LinkRange
}

// ColImage is one AEU's checkpoint image of one column partition.
type ColImage struct {
	Obj    uint32
	Values []uint64
}

// AEUImage is one AEU's complete checkpoint contribution. Stamp is the
// last sequence number this AEU had logged when the image was cut, and Gen
// the log generation sealed at that moment: records at or below the stamp
// live in generations <= Gen, everything after in later ones, so replay is
// exactly "image + all later generations".
type AEUImage struct {
	Stamp uint64
	Gen   int
	Trees []TreeImage
	Cols  []ColImage
}

// CheckpointData is a complete engine checkpoint as assembled by the core
// layer.
type CheckpointData struct {
	Objects []ObjectMeta
	AEUs    []AEUImage
}

// manifest is the durable root pointer: recovery starts at the checkpoint
// it names. It is published atomically (tmp + fsync + rename + dir sync),
// so a crash mid-checkpoint leaves the previous manifest intact.
type manifest struct {
	N          uint64 `json:"n"`
	Checkpoint string `json:"checkpoint"`
	NextSeq    uint64 `json:"next_seq"`
}

// Options configures a durability manager.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// SyncWrites gates client acks on the covering fsync. Off, writes are
	// still logged and group-committed, but an ack may precede its fsync —
	// a crash can then lose the last group.
	SyncWrites bool
	// Faults optionally injects torn_write / fail_fsync / crash events.
	Faults *faults.Injector
	// TearSeed seeds the torn-tail offset choice at crash (0 = 1).
	TearSeed int64
}

// Manager owns a data directory: the per-AEU logs, the checkpoint files
// and the manifest. One Manager per engine.
type Manager struct {
	dir        string
	syncWrites bool
	faults     *faults.Injector
	tearRng    *rand.Rand

	seq      atomic.Uint64 // global record sequence (doubles as transfer id)
	crashReq atomic.Bool

	mu       sync.Mutex
	logs     map[int]*Log
	startGen int
	ckptN    uint64
	man      *manifest // loaded at Open; nil on a fresh directory
	objNames map[uint32]string
	closed   bool
	crashed  bool
	// pubStamps holds each AEU's image stamp in the last checkpoint this
	// session durably published. Link provenance below it may be dropped;
	// everything newer must survive discarded checkpoint attempts.
	pubStamps map[int]uint64

	// Counters (plain atomics so recovery, which runs before the engine's
	// registry exists, is still counted; AttachMetrics exports them).
	records       atomic.Int64
	bytesLogged   atomic.Int64
	fsyncs        atomic.Int64
	fsyncFailures atomic.Int64
	logErrors     atomic.Int64
	tornTails     atomic.Int64
	replayRecords atomic.Int64
	replayBytes   atomic.Int64
	recoveryNS    atomic.Int64
	checkpoints   atomic.Int64
	ckptBytes     atomic.Int64
	groupHist     atomic.Pointer[metrics.Histogram]
}

// Open loads (or initializes) a data directory. Call Recover next; a fresh
// directory returns a nil recovery state.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	seed := opts.TearSeed
	if seed == 0 {
		seed = 1
	}
	m := &Manager{
		dir:        opts.Dir,
		syncWrites: opts.SyncWrites,
		faults:     opts.Faults,
		tearRng:    rand.New(rand.NewSource(seed)),
		logs:       make(map[int]*Log),
		objNames:   make(map[uint32]string),
		pubStamps:  make(map[int]uint64),
	}
	// New sessions always log into fresh generations: never append to a
	// file that may have a torn tail.
	maxGen, maxCkpt, err := m.scanDir()
	if err != nil {
		return nil, err
	}
	m.startGen = maxGen + 1
	m.ckptN = maxCkpt
	if man, err := m.readManifest(); err != nil {
		return nil, err
	} else if man != nil {
		m.man = man
		m.seq.Store(man.NextSeq)
	}
	return m, nil
}

// scanDir finds the highest existing log generation and checkpoint number.
func (m *Manager) scanDir() (maxGen int, maxCkpt uint64, err error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if _, g, ok := parseWALName(e.Name()); ok && g > maxGen {
			maxGen = g
		}
		if n, ok := parseCkptName(e.Name()); ok && n > maxCkpt {
			maxCkpt = n
		}
	}
	return maxGen, maxCkpt, nil
}

func (m *Manager) walPath(aeu, gen int) string {
	return filepath.Join(m.dir, fmt.Sprintf("wal-%d-%d.log", aeu, gen))
}

func (m *Manager) ckptPath(n uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("checkpoint-%d.ckpt", n))
}

// parseWALName parses a log file name as walPath writes it,
// wal-<aeu>-<gen>.log; ok is false for every other name.
func parseWALName(name string) (aeu, gen int, ok bool) {
	rest, hasPrefix := strings.CutPrefix(name, "wal-")
	rest, hasSuffix := strings.CutSuffix(rest, ".log")
	a, g, hasSep := strings.Cut(rest, "-")
	aeu, errA := strconv.Atoi(a)
	gen, errG := strconv.Atoi(g)
	ok = hasPrefix && hasSuffix && hasSep && errA == nil && errG == nil && aeu >= 0 && gen >= 0
	return aeu, gen, ok
}

// parseCkptName parses a checkpoint file name as ckptPath writes it,
// checkpoint-<n>.ckpt; ok is false for every other name.
func parseCkptName(name string) (n uint64, ok bool) {
	rest, hasPrefix := strings.CutPrefix(name, "checkpoint-")
	rest, hasSuffix := strings.CutSuffix(rest, ".ckpt")
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, hasPrefix && hasSuffix && err == nil
}

func (m *Manager) manifestPath() string { return filepath.Join(m.dir, "MANIFEST") }

func (m *Manager) readManifest() (*manifest, error) {
	raw, err := os.ReadFile(m.manifestPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("durable: corrupt MANIFEST: %w", err)
	}
	return &man, nil
}

// syncDir fsyncs the data directory (file creations and renames are only
// durable once the directory entry is).
func (m *Manager) syncDir() {
	if d, err := os.Open(m.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// SyncWrites reports whether acks are gated on fsync.
func (m *Manager) SyncWrites() bool { return m.syncWrites }

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

// Log returns (creating on first use) the WAL of one AEU.
func (m *Manager) Log(aeu int) *Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.logs[aeu]
	if l == nil {
		l = newLog(m, aeu, m.startGen)
		m.logs[aeu] = l
	}
	return l
}

// RegisterObject records the public name of an object for checkpoints.
func (m *Manager) RegisterObject(id uint32, name string) {
	m.mu.Lock()
	m.objNames[id] = name
	m.mu.Unlock()
}

// CrashRequested reports whether an armed `crash` fault fired on a log
// append; the test harness polls it to stop the engine at that point.
func (m *Manager) CrashRequested() bool { return m.crashReq.Load() }

// Crashed reports whether Crash was called.
func (m *Manager) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Closed reports whether Close was called.
func (m *Manager) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Flush fsyncs every log's outstanding records.
func (m *Manager) Flush(timeout time.Duration) error {
	m.mu.Lock()
	logs := make([]*Log, 0, len(m.logs))
	for _, l := range m.logs {
		logs = append(logs, l)
	}
	m.mu.Unlock()
	var firstErr error
	for _, l := range logs {
		if err := l.Flush(timeout); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close drains and closes every log (clean shutdown).
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed || m.crashed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	logs := make([]*Log, 0, len(m.logs))
	for _, l := range m.logs {
		logs = append(logs, l)
	}
	m.mu.Unlock()
	for _, l := range logs {
		l.close()
	}
	return nil
}

// Crash hard-stops the durability layer the way kill -9 would: writer
// goroutines stop, buffered-but-unwritten records vanish, and — when the
// torn_write fault is armed — each log file's unsynced tail is truncated
// at a random byte offset, possibly mid-record. Everything covered by an
// fsync (and therefore every released ack under SyncWrites) survives.
func (m *Manager) Crash() {
	m.mu.Lock()
	if m.closed || m.crashed {
		m.mu.Unlock()
		return
	}
	m.crashed = true
	logs := make([]*Log, 0, len(m.logs))
	for _, l := range m.logs {
		logs = append(logs, l)
	}
	m.mu.Unlock()
	for _, l := range logs {
		l.crash()
		if l.file == nil {
			continue
		}
		off := l.writtenOff
		if window := l.writtenOff - l.durableOff; window > 0 && m.faults.Should(faults.TornWrite) {
			m.mu.Lock()
			off = l.durableOff + m.tearRng.Int63n(window+1)
			m.mu.Unlock()
		}
		l.file.Truncate(off)
		l.file.Close()
		l.file = nil
	}
}

// WriteCheckpoint persists a checkpoint and publishes it in the manifest,
// then prunes log generations and checkpoints it supersedes. The write
// order is the durability protocol: checkpoint file (tmp, fsync, rename),
// directory sync, manifest (tmp, fsync, rename), directory sync — only
// then is anything deleted.
func (m *Manager) WriteCheckpoint(data CheckpointData) error {
	m.mu.Lock()
	if m.closed || m.crashed {
		m.mu.Unlock()
		return fmt.Errorf("durable: checkpoint on closed manager")
	}
	m.ckptN++
	n := m.ckptN
	for i := range data.Objects {
		if data.Objects[i].Name == "" {
			data.Objects[i].Name = m.objNames[data.Objects[i].ID]
		}
	}
	m.mu.Unlock()

	path := m.ckptPath(n)
	bytes, err := writeCheckpointFile(path, &data)
	if err != nil {
		return err
	}
	m.syncDir()
	man := manifest{N: n, Checkpoint: filepath.Base(path), NextSeq: m.seq.Load()}
	raw, _ := json.Marshal(&man)
	tmp := m.manifestPath() + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, m.manifestPath()); err != nil {
		return err
	}
	m.syncDir()
	m.mu.Lock()
	m.man = &man
	for i := range data.AEUs {
		m.pubStamps[i] = data.AEUs[i].Stamp
	}
	m.mu.Unlock()
	m.checkpoints.Add(1)
	m.ckptBytes.Add(bytes)
	m.prune(n, &data)
	return nil
}

// prune deletes checkpoints older than n and log generations the new
// checkpoint's stamps supersede (per AEU, generations <= the image's
// sealed generation are fully contained in the image). Logs of AEU ids
// the checkpoint does not cover are deleted outright: they belong to a
// previous session that ran with more workers, recovery already merged
// their contents into the current AEUs (and therefore into this
// checkpoint), and leaving them on disk would make a later recovery
// replay them from stamp 0 — resurrecting deleted keys and letting stale
// link xids win conflicts.
func (m *Manager) prune(n uint64, data *CheckpointData) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if v, ok := parseCkptName(name); ok && v < n {
			os.Remove(filepath.Join(m.dir, name))
		}
		if aeu, gen, ok := parseWALName(name); ok && (aeu >= len(data.AEUs) || gen <= data.AEUs[aeu].Gen) {
			os.Remove(filepath.Join(m.dir, name))
		}
	}
}

// publishedStamp returns one AEU's image stamp in the last checkpoint
// published this session (0 before one publishes).
func (m *Manager) publishedStamp(aeu int) uint64 {
	m.mu.Lock() //eris:allowblock bounded map read of checkpoint bookkeeping; no I/O under the manager lock
	defer m.mu.Unlock()
	return m.pubStamps[aeu]
}

// observeGroup records one group commit's record count.
func (m *Manager) observeGroup(n int64) {
	if h := m.groupHist.Load(); h != nil {
		h.Observe(n)
	}
}

// AttachMetrics exports the durable.* instruments on the engine registry.
// Counters accumulated before attachment (recovery) stay visible: the
// registry reads the manager's own atomics.
func (m *Manager) AttachMetrics(reg *metrics.Registry) {
	reg.CounterFunc("durable.records", m.records.Load)
	reg.CounterFunc("durable.bytes_logged", m.bytesLogged.Load)
	reg.CounterFunc("durable.fsyncs", m.fsyncs.Load)
	reg.CounterFunc("durable.fsync_failures", m.fsyncFailures.Load)
	reg.CounterFunc("durable.log_errors", m.logErrors.Load)
	reg.CounterFunc("durable.torn_tails", m.tornTails.Load)
	reg.CounterFunc("durable.replay_records", m.replayRecords.Load)
	reg.CounterFunc("durable.replay_bytes", m.replayBytes.Load)
	reg.CounterFunc("durable.recovery_ns", m.recoveryNS.Load)
	reg.CounterFunc("durable.checkpoints", m.checkpoints.Load)
	reg.CounterFunc("durable.checkpoint_bytes", m.ckptBytes.Load)
	// 1 to ~16k records per fsync in 8 exponential buckets.
	m.groupHist.Store(reg.Histogram("durable.group_records", metrics.ExpBuckets(1, 4, 8)))
}

// Stats is a snapshot of the durability counters (tests and tools).
type Stats struct {
	Records       int64
	BytesLogged   int64
	Fsyncs        int64
	FsyncFailures int64
	TornTails     int64
	ReplayRecords int64
	ReplayBytes   int64
	RecoveryNS    int64
	Checkpoints   int64
}

// Stats returns the current durability counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Records:       m.records.Load(),
		BytesLogged:   m.bytesLogged.Load(),
		Fsyncs:        m.fsyncs.Load(),
		FsyncFailures: m.fsyncFailures.Load(),
		TornTails:     m.tornTails.Load(),
		ReplayRecords: m.replayRecords.Load(),
		ReplayBytes:   m.replayBytes.Load(),
		RecoveryNS:    m.recoveryNS.Load(),
		Checkpoints:   m.checkpoints.Load(),
	}
}

// writeFileSync writes data to path and fsyncs the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logGensFor lists the on-disk generations of one AEU's log newer than
// afterGen, in ascending order.
func (m *Manager) logGensFor(aeu, afterGen int) ([]int, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range entries {
		if id, g, ok := parseWALName(e.Name()); ok && id == aeu && g > afterGen {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	return gens, nil
}

// walAEUs lists every AEU id that has at least one log file on disk.
func (m *Manager) walAEUs() ([]int, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if id, _, ok := parseWALName(e.Name()); ok {
			seen[id] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}
