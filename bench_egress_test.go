package wanfd

// Egress-path benchmarks for the batched send pipeline: one op is one
// heartbeat carried from Send to the kernel — encode into a pooled buffer,
// per-shard ring hand-off, destination resolution under one peer-table
// lock per batch, and a sendmmsg flush (linux; batch-of-one elsewhere).
// Destinations are unique loopback addresses with no listener, so the
// kernel pays the full local delivery attempt. The classic per-datagram
// baseline this pipeline replaced is recorded in BENCH_egress.json.

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

// noopReceiver satisfies neko.Receiver for endpoints that only send.
type noopReceiver struct{}

func (noopReceiver) Receive(*neko.Message) {}

// benchEgressLag bounds how far producers may run ahead of the flusher —
// an eighth of the total ring capacity, so round-robin traffic never
// overflows a shard.
const benchEgressLag = 1024

// runEgressBench measures delivered send throughput at the transport
// layer: heartbeats round-robin over the peer set, production lag-bounded
// against the flush counters, final flush inside the timed region. The
// run fails on any ring drop or send error — ns/op is lossless
// throughput.
func runEgressBench(b *testing.B, peers int) {
	n, err := transport.NewUDPNetwork(transport.UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	base := neko.ProcessID(2)
	for i := 0; i < peers; i++ {
		if err := n.AddPeer(base+neko.ProcessID(i), benchPeerAddr(i)); err != nil {
			b.Fatal(err)
		}
	}
	sender, err := n.Attach(1, noopReceiver{})
	if err != nil {
		b.Fatal(err)
	}
	flushed := func() int {
		st := n.EgressStats()
		return int(st.Packets + st.RingDrops + st.SendErrors)
	}
	seqs := make([]int64, peers)
	msg := &neko.Message{From: 1, Type: neko.MsgHeartbeat}
	clk := n.Clock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % peers
		seqs[p]++
		msg.To = base + neko.ProcessID(p)
		msg.Seq = seqs[p]
		msg.SentAt = clk.Now()
		sender.Send(msg)
		// The lag probe reads several atomics; polling it every 64th op keeps
		// the bound (worst-case drift 64 sends against 7168 spare ring slots)
		// without paying the reads on the hot path.
		if i&63 == 0 && i-flushed() > benchEgressLag {
			for i-flushed() > benchEgressLag/2 {
				runtime.Gosched()
			}
		}
	}
	for flushed() < b.N {
		runtime.Gosched()
	}
	b.StopTimer()
	if errs := n.SendErrors(); errs != 0 {
		b.Fatalf("%d send errors", errs)
	}
	st := n.EgressStats()
	if st.RingDrops != 0 {
		b.Fatalf("%d ring drops: lag bound failed to keep the pipeline lossless", st.RingDrops)
	}
	if st.Flushes > 0 {
		b.ReportMetric(float64(st.Packets)/float64(st.Flushes), "batch")
	}
	b.ReportMetric(float64(st.SyscallsSaved)/float64(b.N), "saved/op")
}

// BenchmarkEgress1k measures the egress pipeline at 1024 destinations.
func BenchmarkEgress1k(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runEgressBench(b, benchClusterPeers) })
}

// BenchmarkEgress10k is the acceptance configuration: at 10240
// destinations the flush path must stay at 0 allocs/op
// (BENCH_egress.json).
func BenchmarkEgress10k(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runEgressBench(b, benchCluster10kPeers) })
}

// BenchmarkEgress100k pushes the batched egress to 102400 destinations;
// completing without a drop demonstrates bounded lag at 100k peers.
func BenchmarkEgress100k(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runEgressBench(b, benchCluster100kPeers) })
}

// runPipelineBench is the combined both-directions scale runner: one
// endpoint serving `peers` peers in both directions at once. Each op
// sends one heartbeat through the batched egress AND injects one received
// heartbeat through the batched ingest, so the flusher, the drain
// consumers and the producer all contend for the same cores. The run
// fails on any malformed packet, ring drop or send error — completion
// means both pipelines sustained the peer count with bounded lag and
// zero unexplained loss.
func runPipelineBench(b *testing.B, peers int, opts ...Option) {
	mm, err := NewMultiMonitor("127.0.0.1:0", opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = mm.Close() }()
	pkts, srcs := buildIngestTraffic(b, mm, peers)
	inj := mm.net.NewInjector()
	// Egress destinations reuse the registered peer addresses; ids are the
	// transport ids the monitor assigned (multiMonitorID+1 onward). The
	// router's inherited Send hands messages to the same endpoint the
	// ingest half receives on.
	base := multiMonitorID + 1
	seqs := make([]int64, peers)
	msg := &neko.Message{From: multiMonitorID, Type: neko.MsgHeartbeat}
	clk := mm.net.Clock()
	wallBase := time.Now().UnixNano()
	ingested := func() int {
		_, rcv, mal := mm.net.Stats()
		return int(rcv+mal) + int(mm.net.IngestStats().RingDrops)
	}
	egressed := func() int {
		st := mm.net.EgressStats()
		return int(st.Packets + st.RingDrops + st.SendErrors)
	}
	chunkPkts := make([][]byte, 0, benchIngestChunk)
	chunkSrcs := make([]netip.AddrPort, 0, benchIngestChunk)
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; {
		chunkPkts, chunkSrcs = chunkPkts[:0], chunkSrcs[:0]
		for len(chunkPkts) < benchIngestChunk && i < b.N {
			p := i % peers
			// Outbound half: one heartbeat through the egress pipeline.
			seqs[p]++
			msg.To = base + neko.ProcessID(p)
			msg.Seq = seqs[p]
			msg.SentAt = clk.Now()
			mm.router.Send(msg)
			// Inbound half: one received heartbeat through the ingest
			// pipeline (patched seq + sender timestamp).
			binary.BigEndian.PutUint64(pkts[p][12:20], uint64(seqs[p]))
			binary.BigEndian.PutUint64(pkts[p][20:28], uint64(wallBase+int64(i)*1000))
			chunkPkts = append(chunkPkts, pkts[p])
			chunkSrcs = append(chunkSrcs, srcs[p])
			i++
		}
		inj.InjectBatch(chunkPkts, chunkSrcs)
		sent += len(chunkPkts)
		for sent-ingested() > benchIngestLag || sent-egressed() > benchEgressLag {
			runtime.Gosched()
		}
	}
	for ingested() < sent || egressed() < sent {
		runtime.Gosched()
	}
	b.StopTimer()
	if _, _, mal := mm.net.Stats(); mal != 0 {
		b.Fatalf("%d malformed packets", mal)
	}
	if st := mm.net.IngestStats(); st.RingDrops != 0 {
		b.Fatalf("%d ingest ring drops", st.RingDrops)
	}
	st := mm.net.EgressStats()
	if st.RingDrops != 0 || st.SendErrors != 0 {
		b.Fatalf("egress drops=%d errors=%d", st.RingDrops, st.SendErrors)
	}
	if st.Flushes > 0 {
		b.ReportMetric(float64(st.Packets)/float64(st.Flushes), "batch")
	}
}

// BenchmarkPipeline100k is the combined scale test at 102400 peers on
// the default scale profile.
func BenchmarkPipeline100k(b *testing.B) {
	runPipelineBench(b, benchCluster100kPeers)
}

// BenchmarkPipeline1M is the memory-layout acceptance test: 1,048,576
// peers held in the arena-backed shards, driven in both directions at
// once on the 1M scale profile (64-way peer/ingest tables, 32-way
// egress, 1024-slot wheels). The lag bounds plus the drop/error fatals
// make completion itself the lossless proof; steady state must stay at
// 0 allocs/op — the arena, the open-addressed tables, the rings and the
// message pools between them recycle everything.
func BenchmarkPipeline1M(b *testing.B) {
	runPipelineBench(b, benchCluster1MPeers,
		WithPipeline(PipelineConfig{ExpectedPeers: benchCluster1MPeers}))
}
