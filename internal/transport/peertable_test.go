package transport

import (
	"fmt"
	"net/netip"
	"testing"

	"wanfd/internal/neko"
)

// churnAddr returns a unique private IPv4 address for peer i.
func churnAddr(i int) string {
	return fmt.Sprintf("10.%d.%d.%d:7%03d", (i>>16)&0xff, (i>>8)&0xff, i&0xff, i%1000)
}

// TestPeerChurnCompaction drives repeated full add/remove cycles through
// the arena-backed peer tables and asserts the layout returns to baseline
// each time: no arena leak, tombstones compacted below the Cap/4 bound,
// probe lengths bounded, and table capacity stable across cycles rather
// than ratcheting upward.
func TestPeerChurnCompaction(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const (
		cycles = 6
		peers  = 4096
	)
	var capAfterFirst int
	for c := 0; c < cycles; c++ {
		for i := 0; i < peers; i++ {
			if err := n.AddPeer(neko.ProcessID(100+i), churnAddr(i)); err != nil {
				t.Fatalf("cycle %d add peer %d: %v", c, i, err)
			}
		}
		if got := n.Peers(); got != peers {
			t.Fatalf("cycle %d: %d peers registered, want %d", c, got, peers)
		}
		_, byID, byAddr4, _ := n.PeerTableStats()
		if byID.MaxProbe > 64 {
			t.Fatalf("cycle %d: byID MaxProbe %d after refill, want bounded", c, byID.MaxProbe)
		}
		if byAddr4.MaxProbe > 64 {
			t.Fatalf("cycle %d: byAddr4 MaxProbe %d after refill, want bounded", c, byAddr4.MaxProbe)
		}
		for i := 0; i < peers; i++ {
			if err := n.RemovePeer(neko.ProcessID(100 + i)); err != nil {
				t.Fatalf("cycle %d remove peer %d: %v", c, i, err)
			}
		}
		arenaStats, byID, byAddr4, _ := n.PeerTableStats()
		if arenaStats.Live != 0 {
			t.Fatalf("cycle %d: arena holds %d live records after full drain", c, arenaStats.Live)
		}
		if byID.Live != 0 || byAddr4.Live != 0 {
			t.Fatalf("cycle %d: tables hold %d/%d live entries after full drain", c, byID.Live, byAddr4.Live)
		}
		for name, st := range map[string]struct{ Tombstones, Cap int }{
			"byID":    {byID.Tombstones, byID.Cap},
			"byAddr4": {byAddr4.Tombstones, byAddr4.Cap},
		} {
			if st.Tombstones*4 > st.Cap {
				t.Fatalf("cycle %d: %s carries %d tombstones at cap %d, want compacted below cap/4",
					c, name, st.Tombstones, st.Cap)
			}
		}
		if c == 0 {
			capAfterFirst = byID.Cap
		} else if byID.Cap > capAfterFirst {
			t.Fatalf("cycle %d: byID cap grew %d -> %d across identical churn cycles",
				c, capAfterFirst, byID.Cap)
		}
	}
	arenaStats, _, _, _ := n.PeerTableStats()
	// Every post-first-cycle allocation must come from free-list reuse: the
	// arena never grows past the first cycle's high-water mark.
	if want := uint64((cycles - 1) * peers); arenaStats.Reused < want {
		t.Fatalf("arena reused %d records, want >= %d (slab growth instead of reuse)", arenaStats.Reused, want)
	}
	if arenaStats.Capacity > peers+1024 {
		t.Fatalf("arena capacity %d after churn, want near the %d high-water mark", arenaStats.Capacity, peers)
	}
}

// TestAddrKey6Packing pins the two-word key layout: big-endian halves of
// the 16-byte address, port excluded.
func TestAddrKey6Packing(t *testing.T) {
	ap := netip.MustParseAddrPort("[0102:0304:0506:0708:090a:0b0c:0d0e:0f10]:9999")
	k1, k2 := addrKey6(ap)
	if k1 != 0x0102030405060708 || k2 != 0x090a0b0c0d0e0f10 {
		t.Fatalf("addrKey6 = %#x, %#x, want big-endian address halves", k1, k2)
	}
	// The port must not leak into the key: lookups disambiguate it against
	// the arena record instead.
	k1b, k2b := addrKey6(netip.MustParseAddrPort("[0102:0304:0506:0708:090a:0b0c:0d0e:0f10]:1"))
	if k1b != k1 || k2b != k2 {
		t.Fatalf("addrKey6 varies with port: (%#x,%#x) vs (%#x,%#x)", k1, k2, k1b, k2b)
	}
}

// attributed resolves a source address through the receive path's
// lookup, as processBatch does for each drained datagram.
func attributed(n *UDPNetwork, ap netip.AddrPort) (neko.ProcessID, bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	if ps := n.lookupAddrLocked(ap); ps != nil {
		return ps.id, true
	}
	return 0, false
}

// TestIPv6LookupEquivalence proves the packed two-word index resolves
// exactly the peers a structural address comparison would: hits on the
// registered address+port, misses on swapped halves and foreign ports,
// and coexistence of same-address different-port peers on one probe
// chain.
func TestIPv6LookupEquivalence(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	peers := map[neko.ProcessID]string{
		2: "[2001:db8::1]:7001",
		3: "[2001:db8::2]:7001",
		// Same address as peer 2, different port: shares the 128-bit key,
		// disambiguated by the port check against the arena record.
		4: "[2001:db8::1]:7002",
		// Peer 3's two key words swapped (k1<->k2): a distinct key that
		// must not alias.
		5: "[::2:2001:db8:0:0]:7001",
	}
	for id, addr := range peers {
		if err := n.AddPeer(id, addr); err != nil {
			t.Fatalf("add peer %d: %v", id, err)
		}
	}

	for id, addr := range peers {
		ap := netip.MustParseAddrPort(addr)
		got, ok := attributed(n, ap)
		if !ok || got != id {
			t.Fatalf("attributed(%s) = %d, %v, want %d", addr, got, ok, id)
		}
	}
	for _, miss := range []string{
		"[2001:db8::1]:7003", // registered address, unregistered port
		"[2001:db8::3]:7001", // unregistered address
		"[db8:2001::1]:7001", // first half permuted
	} {
		if id, ok := attributed(n, netip.MustParseAddrPort(miss)); ok {
			t.Fatalf("attributed(%s) resolved to peer %d, want miss", miss, id)
		}
	}

	// Removing the shared-address peer must leave its same-key sibling
	// reachable (tombstone keeps the probe chain walkable).
	if err := n.RemovePeer(2); err != nil {
		t.Fatal(err)
	}
	if id, ok := attributed(n, netip.MustParseAddrPort("[2001:db8::1]:7002")); !ok || id != 4 {
		t.Fatalf("after removing peer 2, attributed sibling = %d, %v, want 4", id, ok)
	}
	if id, ok := attributed(n, netip.MustParseAddrPort("[2001:db8::1]:7001")); ok {
		t.Fatalf("removed peer 2 still attributed as %d", id)
	}
}

// TestIPv6ChurnCompaction is the IPv6 flavor of the churn regression: the
// two-word table must also compact tombstones and hold probe lengths
// bounded under full add/remove cycles.
func TestIPv6ChurnCompaction(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const (
		cycles = 4
		peers  = 1024
	)
	for c := 0; c < cycles; c++ {
		for i := 0; i < peers; i++ {
			addr := fmt.Sprintf("[2001:db8:%x::%x]:7001", i>>8, i&0xff)
			if err := n.AddPeer(neko.ProcessID(100+i), addr); err != nil {
				t.Fatalf("cycle %d add peer %d: %v", c, i, err)
			}
		}
		for i := 0; i < peers; i++ {
			if err := n.RemovePeer(neko.ProcessID(100 + i)); err != nil {
				t.Fatalf("cycle %d remove peer %d: %v", c, i, err)
			}
		}
		arenaStats, _, _, byAddr6 := n.PeerTableStats()
		if arenaStats.Live != 0 || byAddr6.Live != 0 {
			t.Fatalf("cycle %d: %d arena / %d table entries live after drain", c, arenaStats.Live, byAddr6.Live)
		}
		if byAddr6.Tombstones*4 > byAddr6.Cap {
			t.Fatalf("cycle %d: byAddr6 %d tombstones at cap %d, want compacted", c, byAddr6.Tombstones, byAddr6.Cap)
		}
		if byAddr6.MaxProbe > 64 {
			t.Fatalf("cycle %d: byAddr6 MaxProbe %d, want bounded", c, byAddr6.MaxProbe)
		}
	}
}
