package node

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/netconfig"
)

// Environment variables of the role runner. The cluster integration
// test re-executes its own test binary with PDC_WIRE_ROLE set; `pdcnet
// up` spawns its own binary the same way. Keeping the contract in env
// variables (not flags) lets any binary embed RunRoleFromEnv first
// thing in main and become cluster-spawnable.
const (
	EnvRole     = "PDC_WIRE_ROLE"     // "peer" | "orderer" | "gateway"
	EnvConfig   = "PDC_WIRE_CONFIG"   // topology JSON path
	EnvMaterial = "PDC_WIRE_MATERIAL" // identity material path
	EnvName     = "PDC_WIRE_NAME"     // node identity name
	EnvListen   = "PDC_WIRE_LISTEN"   // TCP listen address
	EnvOrderer  = "PDC_WIRE_ORDERER"  // orderer address (peer, gateway)
	EnvPeers    = "PDC_WIRE_PEERS"    // "name=addr,name=addr"
	EnvTLS      = "PDC_WIRE_TLS"      // "1" enables pinned-key TLS
	// EnvSnapshotFrom names the peer a cold-joining peer fetches a
	// bootstrap snapshot from when the orderer log is compacted.
	EnvSnapshotFrom = "PDC_WIRE_SNAPSHOT_FROM"
)

// ReadyPrefix starts the line a spawned role prints once its listener
// is bound; the launcher parses the address after it.
const ReadyPrefix = "READY "

// RunRoleFromEnv starts the role the environment describes and blocks
// until the parent kills the process, sends SIGINT/SIGTERM, or closes
// stdin. Returns (false, nil) immediately when PDC_WIRE_ROLE is unset —
// callers fall through to their normal main. On success the process
// prints "READY <addr>" on stdout.
func RunRoleFromEnv() (bool, error) {
	role := os.Getenv(EnvRole)
	if role == "" {
		return false, nil
	}
	cfg, err := netconfig.Load(os.Getenv(EnvConfig))
	if err != nil {
		return true, err
	}
	material, err := netconfig.LoadMaterial(os.Getenv(EnvMaterial))
	if err != nil {
		return true, err
	}
	peerAddrs, err := ParsePeerAddrs(os.Getenv(EnvPeers))
	if err != nil {
		return true, err
	}
	opts := Options{
		Config:       cfg,
		Material:     material,
		Name:         os.Getenv(EnvName),
		Listen:       os.Getenv(EnvListen),
		OrdererAddr:  os.Getenv(EnvOrderer),
		PeerAddrs:    peerAddrs,
		TLS:          os.Getenv(EnvTLS) == "1",
		SnapshotFrom: os.Getenv(EnvSnapshotFrom),
		Log:          os.Stderr,
	}
	return true, Run(role, opts)
}

// Run starts one role, prints its READY line, and blocks until the
// process receives SIGINT/SIGTERM or its stdin closes — the launcher
// contract shared by RunRoleFromEnv and pdcnet's role subcommands.
func Run(role string, opts Options) error {
	var n *Node
	var err error
	switch role {
	case "peer":
		n, err = StartPeer(opts)
	case "orderer":
		n, err = StartOrderer(opts)
	case "gateway":
		n, err = StartGateway(opts)
	default:
		return fmt.Errorf("node: unknown role %q", role)
	}
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Printf("%s%s\n", ReadyPrefix, n.Addr())

	// Exit on a signal or when the launcher closes our stdin — the
	// latter catches a parent that died without killing us.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stdinClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	select {
	case <-sigc:
	case <-stdinClosed:
	}
	return nil
}

// FreePorts reserves n distinct loopback TCP ports and returns
// "127.0.0.1:port" addresses. The listeners are closed before
// returning, so a rare race with another process exists — acceptable
// for loopback clusters on test machines.
func FreePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("node: reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// WaitReady scans a spawned role's stdout for its READY line and
// returns the advertised address. The reader keeps draining in the
// background afterwards so the child never blocks on a full pipe.
func WaitReady(r io.Reader) (string, error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if after, found := strings.CutPrefix(line, ReadyPrefix); found {
			go io.Copy(io.Discard, br)
			return strings.TrimRight(after, "\r\n"), nil
		}
		if err != nil {
			return "", fmt.Errorf("node: role exited before READY: %w", err)
		}
	}
}
