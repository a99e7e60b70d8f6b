package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/netconfig"
	"repro/internal/node"
	"repro/internal/service"
	"repro/internal/wire"
)

// clusterSys is the wire deployment: an orderer, one peer per org and a
// gateway, each a node role (node.StartOrderer, StartPeer, StartGateway)
// behind its own wire server on a loopback port, spoken to over the
// wire protocol with the binary codec and no TLS. Every hop between
// roles crosses internal/wire as it does between role processes, but
// the five roles share one child process (this binary, re-executed
// with hostEnv set): on a host of few vCPUs, six processes handing
// each request along measure the kernel's scheduler and the
// hypervisor's steal more than the program. The roles live in a child
// rather than in this process because they cannot be closed cleanly: a
// wire server waits for a connection's stream handlers before it
// cancels them, so Node.Close hangs while a peer's order.blocks or the
// gateway's deliver stream is open. The child is killed instead. Peers
// keep their blocks and state in the durable backend, with fsync.
type clusterSys struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	gws   []*wire.GatewayClient
	peers []*wire.PeerClient // sorted by name; peers[0] is the gateway's commit peer
}

// hostEnv, when set, makes this binary host the wire deployment for
// the parent benchmark process: the value is the scratch directory,
// hostSeedEnv the orderer seed.
const (
	hostEnv     = "PERFBENCH_WIRE_HOST"
	hostSeedEnv = "PERFBENCH_WIRE_SEED"
)

// hostAddrs is the host's ready line: where the parent dials.
type hostAddrs struct {
	Gateway string            `json:"gateway"`
	Peers   map[string]string `json:"peers"`
}

const hostReady = "HOST READY "

// runHost starts every role of the wire deployment in this process,
// prints its addresses, and serves until the parent closes stdin. The
// roles are not closed on the way out: the process exit ends them.
func runHost(dir string) error {
	seed, err := strconv.ParseInt(os.Getenv(hostSeedEnv), 10, 64)
	if err != nil {
		return err
	}
	storage, err := filepath.Abs(filepath.Join(dir, "storage"))
	if err != nil {
		return err
	}
	cfg := &netconfig.Config{
		Orgs:       orgs,
		BatchSize:  32,
		Seed:       seed,
		Security:   netconfig.Security{StorageBackend: "durable", StorageDir: storage},
		Chaincodes: []netconfig.Chaincode{{Name: ccName, Version: "1.0", Contract: "public"}},
	}
	material, err := cfg.GenerateMaterial()
	if err != nil {
		return err
	}
	var names []string
	for _, org := range orgs {
		names = append(names, "peer0."+org)
	}
	sort.Strings(names)
	ports, err := node.FreePorts(len(names) + 2)
	if err != nil {
		return err
	}
	addrs := hostAddrs{Gateway: ports[len(names)+1], Peers: map[string]string{}}
	ordererAddr := ports[len(names)]
	for i, name := range names {
		addrs.Peers[name] = ports[i]
	}
	opts := func(name, listen string) node.Options {
		return node.Options{Config: cfg, Material: material, Name: name, Listen: listen,
			OrdererAddr: ordererAddr, PeerAddrs: addrs.Peers}
	}
	if _, err := node.StartOrderer(opts(netconfig.OrdererNode, ordererAddr)); err != nil {
		return fmt.Errorf("start orderer: %w", err)
	}
	// Peers dial each other's gossip listeners while they start, so
	// they start together.
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = node.StartPeer(opts(name, addrs.Peers[name]))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("start peers: %w", err)
	}
	if _, err := node.StartGateway(opts("client0."+orgs[0], addrs.Gateway)); err != nil {
		return fmt.Errorf("start gateway: %w", err)
	}
	line, err := json.Marshal(addrs)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", hostReady, line)
	io.Copy(io.Discard, os.Stdin)
	return nil
}

func launchCluster(dir string, clients int, seed int64) (*clusterSys, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "host.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), hostEnv+"="+dir, hostSeedEnv+"="+strconv.FormatInt(seed, 10))
	cmd.Stderr = log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wire host: %w", err)
	}
	s := &clusterSys{cmd: cmd, stdin: stdin}
	var addrs hostAddrs
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if rest, ok := strings.CutPrefix(line, hostReady); ok && err == nil {
		err = json.Unmarshal([]byte(rest), &addrs)
	} else if err == nil {
		err = fmt.Errorf("unexpected line %q", line)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("wire host (log in %s): %w", log.Name(), err)
	}
	for i := 0; i < clients; i++ {
		c, err := wire.Dial(addrs.Gateway, wire.ClientOptions{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.gws = append(s.gws, wire.NewGatewayClient(c))
	}
	var names []string
	for name := range addrs.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, err := wire.Dial(addrs.Peers[name], wire.ClientOptions{})
		if err != nil {
			s.close()
			return nil, err
		}
		p, err := wire.NewPeerClient(c)
		if err != nil {
			c.Close()
			s.close()
			return nil, err
		}
		s.peers = append(s.peers, p)
	}
	return s, nil
}

func (s *clusterSys) clients() []service.Gateway {
	out := make([]service.Gateway, len(s.gws))
	for i, g := range s.gws {
		out[i] = g
	}
	return out
}

func (s *clusterSys) procs() procSet { return procSet{pids: []int{s.cmd.Process.Pid}} }

// settle waits until every peer has reached the commit peer's height;
// once every op has a final status, the commit peer holds every block.
func (s *clusterSys) settle(ctx context.Context) error {
	for {
		top, err := s.peers[0].Height(ctx)
		if err != nil {
			return err
		}
		behind := false
		for _, p := range s.peers[1:] {
			h, err := p.Height(ctx)
			if err != nil {
				return err
			}
			if h < top {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("peers did not reach height %d: %w", top, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// wireStats sums the client connections' per-RPC counters.
func (s *clusterSys) wireStats() (rpcs, out, in float64) {
	for _, g := range s.gws {
		for _, st := range g.RPCStats() {
			rpcs += float64(st.Calls)
			out += float64(st.BytesOut)
			in += float64(st.BytesIn)
		}
	}
	return
}

func (s *clusterSys) close() error {
	for _, g := range s.gws {
		g.Close()
	}
	for _, p := range s.peers {
		p.Close()
	}
	// The host holds nothing worth a graceful shutdown.
	s.stdin.Close()
	s.cmd.Process.Kill()
	s.cmd.Wait()
	return nil
}
