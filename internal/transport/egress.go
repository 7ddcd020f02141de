package transport

import (
	"net/netip"
	"sync/atomic"
	"time"

	"wanfd/internal/freelist"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
	"wanfd/internal/telemetry"
)

// Batched egress pipeline tuning. Senders (heartbeater ticks, protocol
// layers) encode into pooled buffers and push onto per-shard rings; a
// single flusher goroutine sweeps the shards, resolves each batch's
// destinations under one peer-table read lock, and hands the whole batch
// to the kernel in one sendmmsg call (linux; batch-of-one elsewhere).
// Shards are keyed by destination id, so one peer's packets always ride
// one FIFO ring and stay in send order across flushes.
const (
	// egressShards is the default shard count; UDPConfig.EgressShards
	// widens it at scale.
	egressShards = 8
	// egressRingCap bounds how many encoded packets can wait for the
	// flusher per shard; overflow is counted and dropped (UDP semantics —
	// a full ring means the NIC/kernel cannot keep up, and blocking the
	// sender would stall the heartbeat grid, which is worse than one
	// lost heartbeat).
	egressRingCap = 1024
	// defaultEgressBatch is the sendmmsg batch size when the config does
	// not choose one; maxEgressBatch caps configured values so the
	// flusher's preallocated syscall arrays stay bounded.
	defaultEgressBatch = 64
	maxEgressBatch     = 256
)

// egressItem is one encoded datagram waiting for the flusher: the pooled
// wire buffer and its destination. The destination is resolved by the
// flusher per batch (one peer-table lock acquisition per flush, mirroring
// the ingest side's per-batch attribution), so the item carries the peer
// id, not an address.
type egressItem struct {
	buf []byte
	to  neko.ProcessID
}

// egressShard is one lane of the egress fan-in: producers (any goroutine
// calling Send) push, the flusher pops.
type egressShard struct {
	ring *freelist.Ring[egressItem]
}

// egressState is the batched send pipeline: per-shard rings, the shared
// encode-buffer pool (owned by UDPNetwork.bufs), and the flusher's wake
// latch.
type egressState struct {
	shards    []egressShard
	shardMask uint64
	wake      chan struct{}

	batch         int
	flushInterval time.Duration

	flushes   atomic.Uint64 // sendmmsg (or fallback write-loop) flushes
	packets   atomic.Uint64 // datagrams flushed to the kernel
	syscalls  atomic.Uint64 // actual send syscalls issued
	ringDrops atomic.Uint64 // packets dropped on full shard rings
	sendErrs  atomic.Uint64 // datagram-level send errors during flush

	batchHist *telemetry.Histogram // datagrams per flush
	mSaved    *telemetry.Counter   // syscalls saved vs per-datagram sends
}

// EgressStats is a snapshot of the batched send pipeline's health
// counters.
type EgressStats struct {
	// Flushes is the number of flush cycles; Packets/Flushes is the mean
	// flush batch size.
	Flushes uint64
	// Packets is the number of datagrams handed to the kernel through the
	// batched pipeline.
	Packets uint64
	// SyscallsSaved is Packets minus the send syscalls actually issued —
	// the direct measure of what sendmmsg batching buys.
	SyscallsSaved uint64
	// RingDrops counts packets discarded because a shard ring was full —
	// the flusher (or the kernel behind it) could not keep up.
	RingDrops uint64
	// SendErrors counts datagram-level errors during flushes.
	SendErrors uint64
	// PoolMisses counts encode buffers allocated because the freelist was
	// empty; steady growth means more packets in flight than the pool
	// covers.
	PoolMisses uint64
}

// EgressStats returns the batched send pipeline counters.
func (n *UDPNetwork) EgressStats() EgressStats {
	eg := n.egress
	syscalls := eg.syscalls.Load()
	packets := eg.packets.Load()
	saved := uint64(0)
	if packets > syscalls {
		saved = packets - syscalls
	}
	return EgressStats{
		Flushes:       eg.flushes.Load(),
		Packets:       packets,
		SyscallsSaved: saved,
		RingDrops:     eg.ringDrops.Load(),
		SendErrors:    eg.sendErrs.Load(),
		PoolMisses:    n.bufs.Misses(),
	}
}

// startEgress builds the send pipeline and launches the flusher.
func (n *UDPNetwork) startEgress() {
	batch := n.cfg.EgressBatch
	if batch <= 0 {
		batch = defaultEgressBatch
	}
	if batch > maxEgressBatch {
		batch = maxEgressBatch
	}
	shards := shardCount(n.cfg.EgressShards, egressShards)
	eg := &egressState{
		shards:        make([]egressShard, shards),
		shardMask:     uint64(shards - 1),
		wake:          make(chan struct{}, 1),
		batch:         batch,
		flushInterval: n.cfg.EgressFlushInterval,
	}
	for i := range eg.shards {
		eg.shards[i].ring = freelist.NewRing[egressItem](egressRingCap)
	}
	n.egress = eg
	if r := n.cfg.Telemetry; r != nil {
		eg.batchHist = r.Histogram(telemetry.MetricEgressBatchSize,
			"datagrams flushed per egress flush cycle",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		eg.mSaved = r.Counter(telemetry.MetricEgressSyscallsSaved,
			"send syscalls avoided by sendmmsg batching")
		r.CounterFunc(telemetry.MetricEgressFlushes,
			"completed egress flush cycles",
			func() float64 { return float64(eg.flushes.Load()) })
		r.CounterFunc(telemetry.MetricEgressRingDrops,
			"packets dropped on full egress shard rings",
			func() float64 { return float64(eg.ringDrops.Load()) })
		r.CounterFunc(telemetry.MetricEgressSendErrors,
			"datagram-level errors during egress flushes",
			func() float64 { return float64(eg.sendErrs.Load()) })
		r.GaugeFunc(telemetry.MetricEgressRingDepth,
			"packets queued across egress shard rings",
			func() float64 {
				total := 0
				for i := range eg.shards {
					total += eg.shards[i].ring.Len()
				}
				return float64(total)
			})
	}
	n.wg.Add(1)
	go n.flushLoop()
}

// enqueue is the send path: encode on the caller's goroutine into
// a pooled buffer, push onto the destination's shard ring, and latch a
// flusher wakeup. It never blocks: a full ring drops the packet (counted)
// rather than stalling the sender's timing grid.
func (n *UDPNetwork) enqueue(m *neko.Message) {
	eg := n.egress
	sentUnix := n.epochNano + int64(m.SentAt)
	buf := n.bufs.Get()
	out, err := Encode(buf, m, sentUnix)
	if err != nil {
		n.sendErrors.Add(1)
		n.mSendErr.Inc()
		n.bufs.Put(buf[:0])
		return
	}
	shard := uint64(uint32(m.To)) & eg.shardMask
	if !eg.shards[shard].ring.TryPush(egressItem{buf: out, to: m.To}) {
		eg.ringDrops.Add(1)
		n.mDropped.Inc()
		n.bufs.Put(out[:0])
		return
	}
	select {
	case eg.wake <- struct{}{}:
	default: // a wakeup is already latched
	}
}

// flushLoop is the single egress consumer: it sweeps the shard rings,
// gathers up to one batch, resolves destinations, and flushes. When a
// sweep comes back partial and a flush interval is configured, the loop
// waits up to that interval for batch-mates before issuing the syscall —
// the bounded one-sided delay DESIGN.md §11 adds to each send instant.
func (n *UDPNetwork) flushLoop() {
	defer n.wg.Done()
	eg := n.egress
	fl := newFlusher(n, eg.batch)
	items := make([]egressItem, eg.batch)
	// dst is the per-batch destination resolution scratch, parallel to
	// items; a nil entry means the peer is unknown and the packet is
	// dropped.
	dst := make([]netip.AddrPort, eg.batch)
	ok := make([]bool, eg.batch)
	// The interval timer latches into a cap-1 channel exactly like wake,
	// so a firing never blocks the wheel goroutine.
	var intTimer sched.Rearmable
	intCh := make(chan struct{}, 1)
	if eg.flushInterval > 0 {
		intTimer = n.timers.NewTimer(func() {
			select {
			case intCh <- struct{}{}:
			default:
			}
		})
	}
	for {
		total := n.sweep(items)
		if total == 0 {
			select {
			case <-eg.wake:
				continue
			case <-n.closed:
				n.drainEgress(items)
				return
			}
		}
		if total < eg.batch && intTimer != nil {
			// Partial batch: wait out the flush interval (or an early
			// close) and top the batch up before flushing.
			intTimer.Reschedule(eg.flushInterval)
			select {
			case <-intCh:
			case <-n.closed:
			}
			intTimer.Stop()
			total += n.sweep(items[total:])
		}
		n.resolveBatch(items[:total], dst, ok)
		n.flushBatch(fl, items[:total], dst, ok)
		select {
		case <-n.closed:
			n.drainEgress(items)
			return
		default:
		}
	}
}

// sweep pops queued packets from the shard rings round-robin into items,
// returning how many it gathered. Shard order is fixed, so packets for
// one peer (always on one shard) keep their ring order.
func (n *UDPNetwork) sweep(items []egressItem) int {
	eg := n.egress
	total := 0
	for s := 0; s < len(eg.shards) && total < len(items); s++ {
		total += eg.shards[s].ring.TryPopN(items[total:])
	}
	return total
}

// resolveBatch maps each item's destination id to its socket address
// under a single peer-table read-lock acquisition — the egress mirror of
// processBatch's per-batch attribution. Unknown destinations (peer
// removed after enqueue) come back not-ok.
func (n *UDPNetwork) resolveBatch(items []egressItem, dst []netip.AddrPort, ok []bool) {
	n.peerMu.RLock()
	for i := range items {
		idx, found := n.byID.Get(uint64(items[i].to))
		if found {
			dst[i] = n.peerArena.Get(idx).ap
		}
		ok[i] = found
	}
	n.peerMu.RUnlock()
}

// flushBatch compacts the resolvable packets to the front of the batch,
// hands them to the platform flusher in one call, updates the counters
// and recycles every buffer.
func (n *UDPNetwork) flushBatch(fl *flusher, items []egressItem, dst []netip.AddrPort, ok []bool) {
	eg := n.egress
	k := 0
	for i := range items {
		if !ok[i] {
			n.mDropped.Inc()
			n.bufs.Put(items[i].buf[:0])
			continue
		}
		items[k] = items[i]
		dst[k] = dst[i]
		k++
	}
	if k == 0 {
		return
	}
	sent, syscalls, errs := fl.flush(items[:k], dst[:k])
	// Recycle before publishing the counters: a producer that observes
	// Packets advance is then guaranteed to find these buffers back in the
	// pool, which keeps the steady state allocation-free.
	for i := 0; i < k; i++ {
		n.bufs.Put(items[i].buf[:0])
	}
	eg.flushes.Add(1)
	eg.packets.Add(uint64(sent))
	eg.syscalls.Add(uint64(syscalls))
	if uint64(sent) > uint64(syscalls) {
		eg.mSaved.Add(uint64(sent) - uint64(syscalls))
	}
	eg.batchHist.Observe(float64(k))
	if errs > 0 {
		eg.sendErrs.Add(uint64(errs))
		n.sendErrors.Add(uint64(errs))
		n.mSendErr.Add(uint64(errs))
	}
	n.sent.Add(uint64(sent))
	n.mSent.Add(uint64(sent))
}

// flushFallback is the portable batch-of-one flush: one stdlib write per
// datagram. It backs the non-linux flusher and the linux flusher when the
// raw descriptor is unavailable.
func flushFallback(n *UDPNetwork, items []egressItem, dst []netip.AddrPort) (sent, syscalls, errs int) {
	for i := range items {
		nw, err := n.conn.WriteToUDPAddrPort(items[i].buf, dst[i])
		syscalls++
		if err != nil || nw < len(items[i].buf) {
			errs++
			continue
		}
		sent++
	}
	return sent, syscalls, errs
}

// drainEgress returns everything still queued to the buffer pool on
// shutdown; nothing is sent.
func (n *UDPNetwork) drainEgress(items []egressItem) {
	for {
		total := n.sweep(items)
		if total == 0 {
			return
		}
		for i := 0; i < total; i++ {
			n.bufs.Put(items[i].buf[:0])
		}
	}
}
