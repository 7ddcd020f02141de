package wanfd

// Ingest-path benchmark for the batched transport pipeline: pre-encoded
// heartbeat datagrams are driven through the endpoint's in-process packet
// Injector, so one op is one datagram decoded, attributed, stamped and
// delivered to its peer's detector — the full receive path minus the
// kernel socket: pooled messages, one clock read and one peer-table lock
// per drain batch, per-shard MPSC hand-off, batch delivery through
// Router.ReceiveBatch. The classic per-packet baseline this pipeline
// replaced is recorded in BENCH_ingest.json.

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/transport"
)

const (
	// benchIngestChunk is how many datagrams each InjectBatch call carries —
	// the injector's analogue of one socket drain cycle.
	benchIngestChunk = 64
	// benchIngestLag bounds how far injection may run ahead of delivery.
	// Spread round-robin over 16 shards this keeps every ring far below
	// capacity, so the benchmark never measures a lossy pipeline.
	benchIngestLag = 1024
)

// buildIngestTraffic registers peers on the monitor and pre-encodes one
// heartbeat packet per peer, with the source address each packet will claim.
// The hot loop patches seq and sentAt in place, so steady-state injection
// touches no allocator.
func buildIngestTraffic(b *testing.B, mm *MultiMonitor, peers int) (pkts [][]byte, srcs []netip.AddrPort) {
	b.Helper()
	pkts = make([][]byte, peers)
	srcs = make([]netip.AddrPort, peers)
	for i, name := range benchPeerNames(peers) {
		addr := benchPeerAddr(i)
		if err := mm.AddPeer(name, addr); err != nil {
			b.Fatal(err)
		}
		m := &neko.Message{Type: neko.MsgHeartbeat, To: multiMonitorID}
		pkt, err := transport.Encode(nil, m, 0)
		if err != nil {
			b.Fatal(err)
		}
		pkts[i] = pkt
		srcs[i] = netip.MustParseAddrPort(addr)
	}
	return pkts, srcs
}

// runIngestBench measures end-to-end ingest throughput: packets are
// injected in drain-sized chunks, round-robin over the peer set (the
// interleaved arrival order a WAN monitor actually sees), with injection
// lag-bounded against the delivery counter so shard rings never overflow.
// The final drain is inside the timed region — ns/op is delivered
// throughput, not enqueue throughput.
func runIngestBench(b *testing.B, peers int, opts ...Option) {
	mm, err := NewMultiMonitor("127.0.0.1:0", opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = mm.Close() }()
	pkts, srcs := buildIngestTraffic(b, mm, peers)
	inj := mm.net.NewInjector()
	seqs := make([]int64, peers)
	chunkPkts := make([][]byte, 0, benchIngestChunk)
	chunkSrcs := make([]netip.AddrPort, 0, benchIngestChunk)
	// Sender timestamps advance 1µs per packet from the run's wall-clock
	// start, read once here: the hot loop performs no clock reads of its
	// own, only in-place header patches.
	wallBase := time.Now().UnixNano()
	delivered := func() int {
		_, rcv, mal := mm.net.Stats()
		st := mm.net.IngestStats()
		return int(rcv + mal + st.RingDrops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; {
		chunkPkts, chunkSrcs = chunkPkts[:0], chunkSrcs[:0]
		for len(chunkPkts) < benchIngestChunk && i < b.N {
			p := i % peers
			seqs[p]++
			binary.BigEndian.PutUint64(pkts[p][12:20], uint64(seqs[p]))
			binary.BigEndian.PutUint64(pkts[p][20:28], uint64(wallBase+int64(i)*1000))
			chunkPkts = append(chunkPkts, pkts[p])
			chunkSrcs = append(chunkSrcs, srcs[p])
			i++
		}
		inj.InjectBatch(chunkPkts, chunkSrcs)
		sent += len(chunkPkts)
		for sent-delivered() > benchIngestLag {
			runtime.Gosched()
		}
	}
	for delivered() < sent {
		runtime.Gosched()
	}
	b.StopTimer()
	if _, _, mal := mm.net.Stats(); mal != 0 {
		b.Fatalf("%d malformed packets", mal)
	}
	st := mm.net.IngestStats()
	if st.RingDrops != 0 {
		b.Fatalf("%d ring drops: lag bound failed to keep the pipeline lossless", st.RingDrops)
	}
	if st.Drains > 0 {
		b.ReportMetric(float64(sent)/float64(st.Drains), "batch")
	}
}

// BenchmarkIngest1k measures the ingest pipeline at 1024 monitored peers.
func BenchmarkIngest1k(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runIngestBench(b, benchClusterPeers) })
}

// BenchmarkIngest10k is the acceptance configuration: at 10240 peers the
// pipeline must stay at 0 allocs/op (BENCH_ingest.json).
func BenchmarkIngest10k(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runIngestBench(b, benchCluster10kPeers) })
	// The hot-path-neutrality pin for the durable QoS store: the batched
	// pipeline with every detector tapping a PeerRecorder must stay at
	// 0 allocs/op — samples go into a fixed ring, drops are counted and
	// never block, and only the background writer touches the filesystem.
	b.Run("batched-store", func(b *testing.B) {
		st, err := OpenStore(StoreConfig{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = st.Close() }()
		runIngestBench(b, benchCluster10kPeers, WithStore(st))
	})
}

// BenchmarkIngest100k is the scale configuration: 102400 peers across the
// 127.0.0.0/8 loopback block. The run fails on any drop or malformed
// packet, so completing at all demonstrates bounded lag with zero
// unexplained loss at 100k peers.
func BenchmarkIngest100k(b *testing.B) {
	b.Run("batched", func(b *testing.B) { runIngestBench(b, benchCluster100kPeers) })
}

// BenchmarkIngest1M is the receive half of the memory-layout tier:
// 1,048,576 peers on the 1M scale profile. The
// per-op cost isolates the arena-table attribution path (64-way byAddr
// lookup → arena record) at full table population.
func BenchmarkIngest1M(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		runIngestBench(b, benchCluster1MPeers,
			WithPipeline(PipelineConfig{ExpectedPeers: benchCluster1MPeers}))
	})
}
