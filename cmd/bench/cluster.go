package main

// The cluster_matrix experiment: boot a 3-node in-process sccgd cluster
// (real TCP listeners between the nodes), ingest the corpus on node A only,
// and run a K-way matrix on node B — which pulls every dataset peer-to-peer
// and routes cells by rendezvous placement — then repeat the matrix on node
// C, which must be answered entirely from the cluster-wide result cache.
// The record carries the cold and repeat wall times, cross-checks the
// cluster answer cell-by-cell against a single-node run (bit-identical or
// the record says so), and counts the scheduler jobs the repeat cost (the
// headline number: 0).

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
)

type benchNode struct {
	svc *sccg.Service
	srv *http.Server
}

func benchCluster(tiles int) (nodes []*benchNode, cleanup func(), err error) {
	const n = 3
	var lns []net.Listener
	var addrs []string
	var dirs []string
	cleanup = func() {
		for _, nd := range nodes {
			nd.srv.Close()
			nd.svc.Shutdown(context.Background())
		}
		for _, ln := range lns[len(nodes):] {
			ln.Close()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	for i := 0; i < n; i++ {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			cleanup()
			return nil, nil, lerr
		}
		lns = append(lns, ln)
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		dir, derr := os.MkdirTemp("", "bench-cluster-*")
		if derr != nil {
			cleanup()
			return nil, nil, derr
		}
		dirs = append(dirs, dir)
		st, serr := sccg.OpenStore(dir)
		if serr != nil {
			cleanup()
			return nil, nil, serr
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		svc := sccg.NewService(sccg.ServiceOptions{
			Scheduler: sccg.SchedulerConfig{Devices: 1},
			Store:     st,
			Peers:     peers,
			Advertise: addrs[i],
		})
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(lns[i])
		nodes = append(nodes, &benchNode{svc: svc, srv: srv})
	}
	_ = tiles
	return nodes, cleanup, nil
}

func benchClusterIngest(svc *sccg.Service, seed int64, tiles int) (string, error) {
	spec := sccg.Representative()
	spec.Name = "bench-cluster"
	spec.Seed = seed
	spec.Tiles = tiles
	man, err := sccg.IngestDataset(svc.Store(), sccg.GenerateDataset(spec))
	if err != nil {
		return "", err
	}
	return man.ID, nil
}

func benchClusterMatrix(svc *sccg.Service, ids []string) (sccg.MatrixStatus, error) {
	id, err := svc.SubmitMatrix(ids)
	if err != nil {
		return sccg.MatrixStatus{}, err
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		mst, ok := svc.Matrix(id)
		if !ok {
			return sccg.MatrixStatus{}, fmt.Errorf("matrix %s vanished", id)
		}
		if mst.State != "running" {
			if mst.State != "done" {
				return mst, fmt.Errorf("matrix %s ended %s", id, mst.State)
			}
			return mst, nil
		}
		if time.Now().After(deadline) {
			return mst, fmt.Errorf("matrix %s stuck", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func clusterRecords(short bool) ([]experimentRecord, error) {
	tiles := 3
	if short {
		tiles = 2
	}

	nodes, cleanup, err := benchCluster(tiles)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Single-node reference over identical content.
	baseDir, err := os.MkdirTemp("", "bench-cluster-base-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(baseDir)
	baseSt, err := sccg.OpenStore(baseDir)
	if err != nil {
		return nil, err
	}
	baseline := sccg.NewService(sccg.ServiceOptions{Scheduler: sccg.SchedulerConfig{Devices: 1}, Store: baseSt})
	defer baseline.Shutdown(context.Background())

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		id, err := benchClusterIngest(nodes[0].svc, seed, tiles)
		if err != nil {
			return nil, err
		}
		if _, err := benchClusterIngest(baseline, seed, tiles); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	baseMx, err := benchClusterMatrix(baseline, ids)
	if err != nil {
		return nil, err
	}

	// Cold: node B holds nothing; every dataset is pulled, cells fan out.
	start := time.Now()
	coldMx, err := benchClusterMatrix(nodes[1].svc, ids)
	if err != nil {
		return nil, err
	}
	coldSecs := time.Since(start).Seconds()

	identical := 1.0
	for i := range coldMx.Cells {
		for j := range coldMx.Cells[i] {
			if i == j {
				continue
			}
			g, w := coldMx.Cells[i][j], baseMx.Cells[i][j]
			if g.Similarity != w.Similarity || g.Intersect != w.Intersect || g.Candidates != w.Candidates {
				identical = 0
			}
		}
	}

	jobsBefore := int64(0)
	for _, nd := range nodes {
		jobsBefore += nd.svc.Scheduler().Stats().Submitted
	}
	start = time.Now()
	repeatMx, err := benchClusterMatrix(nodes[2].svc, ids)
	if err != nil {
		return nil, err
	}
	repeatSecs := time.Since(start).Seconds()
	jobsAfter := int64(0)
	for _, nd := range nodes {
		jobsAfter += nd.svc.Scheduler().Stats().Submitted
	}
	for i := range repeatMx.Cells {
		for j := range repeatMx.Cells[i] {
			if i == j {
				continue
			}
			g, w := repeatMx.Cells[i][j], baseMx.Cells[i][j]
			if g.Similarity != w.Similarity || g.Intersect != w.Intersect || g.Candidates != w.Candidates {
				identical = 0
			}
		}
	}

	cells := float64(len(ids) * (len(ids) - 1) / 2)
	return []experimentRecord{
		{
			Name:     "cluster_matrix",
			WallSecs: coldSecs,
			Values: map[string]float64{
				"nodes":                    3,
				"cells":                    cells,
				"similarity_bit_identical": identical,
				"pulled_datasets":          float64(nodes[1].svc.Store().Len()),
				"repeat_wall_secs":         repeatSecs,
				"repeat_jobs_cluster_wide": float64(jobsAfter - jobsBefore),
				"repeat_speedup_over_cold": coldSecs / repeatSecs,
			},
		},
	}, nil
}
