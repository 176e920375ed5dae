package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lbc/internal/coherency"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// regionID is the one shared region every workload maps.
const regionID rvm.RegionID = 1

// cluster is the default stack, wired the way cmd/lbcnode and
// cmd/storeserver -dir wire it: one storage server with file-backed
// logs and images, and per node a store client, a loopback TCP mesh,
// rvm.Open on the store-backed log and data store, and coherency.New
// on the mesh. Only deployment values are set; every path-selecting
// option keeps its default.
type cluster struct {
	dir   string
	srv   *store.Server
	nodes []*node
}

type node struct {
	id    uint32
	cli   *store.Client
	mesh  *netproto.TCPMesh
	rvm   *rvm.RVM
	co    *coherency.Node
	reg   *rvm.Region
	probe *probe
}

// logPath names a node's log file under the server directory, as
// storeserver -dir lays it out.
func logPath(dir string, id uint32) string {
	return filepath.Join(dir, "logs", fmt.Sprintf("node-%d.log", id))
}

// startCluster starts a server in dir, seeds the region image into the
// store, brings up n nodes, maps the region on each with one segment
// lock per segLen bytes, and waits until every node sees every peer.
func startCluster(dir string, n int, seed []byte, segLen int) (c *cluster, err error) {
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	data, err := rvm.NewDirStore(filepath.Join(dir, "data"))
	if err != nil {
		return c, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return c, err
	}
	c.srv, err = store.NewServer("127.0.0.1:0", store.ServerOptions{
		Data: data,
		NewLog: func(id uint32) (wal.Device, error) {
			return wal.OpenFileDevice(logPath(dir, id))
		},
	})
	if err != nil {
		return c, err
	}
	ids := make([]netproto.NodeID, n)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	for _, id := range ids {
		nd := &node{id: uint32(id), probe: &probe{}}
		c.nodes = append(c.nodes, nd)
		if nd.cli, err = store.Dial(c.srv.Addr()); err != nil {
			return c, err
		}
		if nd.mesh, err = netproto.NewTCPMesh(id, "127.0.0.1:0", map[netproto.NodeID]string{}); err != nil {
			return c, err
		}
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a != b {
				a.mesh.SetPeer(netproto.NodeID(b.id), b.mesh.Addr())
			}
		}
	}
	if err := c.nodes[0].cli.StoreRegion(uint32(regionID), seed); err != nil {
		return c, fmt.Errorf("seed region: %w", err)
	}
	for _, nd := range c.nodes {
		cli, p := nd.cli, nd.probe
		nd.rvm, err = rvm.Open(rvm.Options{
			Node: nd.id,
			Log:  wrapDevice(cli.LogDevice(nd.id), p),
			Data: wrapStore(cli, p),
		})
		if err != nil {
			return c, err
		}
		nd.co, err = coherency.New(coherency.Options{
			RVM:       nd.rvm,
			Transport: wrapTransport(nd.mesh, p),
			Nodes:     ids,
			PeerLogs:  func(id uint32) wal.Device { return wrapDevice(cli.LogDevice(id), p) },
		})
		if err != nil {
			return c, err
		}
	}
	for _, nd := range c.nodes {
		if nd.reg, err = nd.co.MapRegion(regionID, len(seed)); err != nil {
			return c, err
		}
		for off := 0; off < len(seed); off += segLen {
			nd.co.AddSegment(coherency.Segment{
				LockID: uint32(off / segLen), Region: regionID,
				Off: uint64(off), Len: uint64(min(segLen, len(seed)-off)),
			})
		}
	}
	for _, nd := range c.nodes {
		if err := nd.co.WaitPeers(regionID, n-1, 30*time.Second); err != nil {
			return c, err
		}
	}
	return c, nil
}

// close stops the nodes, then the meshes, clients and server, and
// waits for each; it is safe on a partly started cluster.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		if nd.co != nil {
			nd.co.Close()
		}
	}
	for _, nd := range c.nodes {
		if nd.rvm != nil {
			nd.rvm.Close()
		}
		if nd.mesh != nil {
			nd.mesh.Close()
		}
		if nd.cli != nil {
			nd.cli.Close()
		}
	}
	if c.srv != nil {
		c.srv.Close()
	}
}

// quiesce makes every node take every lock in turn and release it
// without writing. The §3.4 interlock holds each acquire until the lock
// holder's updates are installed locally, so afterwards every image
// holds every committed update. Abort leaves no log record.
func (c *cluster) quiesce(locks int) error {
	for _, nd := range c.nodes {
		for l := 0; l < locks; l++ {
			tx := nd.co.Begin(rvm.NoRestore)
			if err := tx.Acquire(uint32(l)); err != nil {
				return fmt.Errorf("quiesce: node %d lock %d: %w", nd.id, l, err)
			}
			if err := tx.Abort(); err != nil {
				return fmt.Errorf("quiesce: node %d lock %d: %w", nd.id, l, err)
			}
		}
	}
	return nil
}

// images copies every node's region image.
func (c *cluster) images() [][]byte {
	out := make([][]byte, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = append([]byte(nil), nd.reg.Bytes()...)
	}
	return out
}

// resetStats zeroes the program's and the probes' counters at the start
// of a measured window.
func (c *cluster) resetStats() {
	c.srv.Stats().Reset()
	for _, nd := range c.nodes {
		nd.rvm.Stats().Reset()
		nd.probe.resetSamples()
	}
}

// setTracing turns span and duration recording on or off on every node.
func (c *cluster) setTracing(on bool) {
	for _, nd := range c.nodes {
		nd.probe.tracing.Store(on)
	}
}

// stats merges the nodes' program counters and histograms.
func (c *cluster) stats() *metrics.Stats {
	agg := metrics.NewStats()
	for _, nd := range c.nodes {
		agg.Merge(nd.rvm.Stats())
	}
	return agg
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }
