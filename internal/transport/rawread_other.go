//go:build !linux

package transport

import "net"

// drainLoop on platforms without the raw non-blocking recvfrom path: one
// blocking read feeds a batch of one through the same processBatch
// pipeline, so pooling, batch stamping and shard hand-off behave
// identically — only the per-wakeup batching is lost.
func (n *UDPNetwork) drainLoop(conn *net.UDPConn) {
	defer n.wg.Done()
	buf := make([]byte, maxPacketSize)
	batch := make([]pending, 0, 1)
	bk := newShardBuckets(len(n.ingest.shards))
	for {
		nb, src, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			continue
		}
		m := n.ingest.msgs.Get()
		sentUnix, derr := DecodeInto(m, buf[:nb])
		if derr != nil {
			n.malformed.Add(1)
			n.mDecodeErr.Inc()
			n.ingest.msgs.Put(m)
			continue
		}
		batch = append(batch[:0], pending{m: m, sentUnix: sentUnix, src: unmapAP(src)})
		n.processBatch(batch, bk)
	}
}
