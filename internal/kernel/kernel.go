package kernel

import "fmt"

// Open flags understood by the synthetic kernel (Linux-flavoured).
const (
	ORdonly int32 = 0
	OWronly int32 = 1
	ORdwr   int32 = 2
	OCreat  int32 = 64
	OTrunc  int32 = 512
	OAppend int32 = 1024
)

// MaxFDs is the per-process file-descriptor table size (EMFILE beyond it).
const MaxFDs = 64

// firstFD is the lowest descriptor allocation hands out: 0-2 are the
// standard streams, which only fd inheritance (InstallAt) fills.
const firstFD = 3

// fdSlots bounds the descriptor numbers a table holds. At most MaxFDs
// descriptors are live, so the lowest free one at or above firstFD is
// never beyond firstFD+MaxFDs-1.
const fdSlots = firstFD + MaxFDs

// pipeCap is the pipe buffer capacity in bytes.
const pipeCap = 4096

// Kernel implements the resource side of the synthetic OS: an in-memory
// file system, pipes, and loopback sockets reachable from host-side
// workload drivers. Process control (spawn/wait/exit/brk) lives in the VM,
// which owns address spaces and scheduling.
//
// All operations are deterministic; the kernel injects no spontaneous
// faults of its own — faults come from the LFI controller at the library
// boundary, as in the paper.
//
// A Kernel has a single owner and takes no lock: it belongs to one
// vm.System, and every call into it — guest syscalls, host functions,
// workload drivers through Conn, controller fault arming — comes from the
// goroutine driving that System. Concurrent campaigns give each System
// its own Kernel (Snapshot.Restore); the frozen snapshot template is the
// only kernel state shared between goroutines, and it is never written.
type Kernel struct {
	fs        map[string]*inode
	tables    map[int]*fdTable // pid -> descriptors
	listeners map[int32]*listener
	// ex is the armed resource-degradation state (exhaust.go): disk
	// quota and fd pressure injected by the LFI controller.
	ex exhaustState
}

type inode struct {
	data []byte
}

// file is an open-file description, possibly shared between processes
// (pipe ends passed to spawned children).
type file struct {
	kind   fileKind
	node   *inode // regular files
	pos    int32
	flags  int32
	pipe   *pipe // pipe ends
	rdEnd  bool  // true when this is the read end of a pipe
	sock   *sock // connected sockets
	mirror bool  // true for the connecting end of a VM-to-VM socket
	lst    *listener
}

type fileKind uint8

const (
	fileRegular fileKind = iota + 1
	filePipe
	fileSocket
	fileListener
)

type pipe struct {
	buf     []byte
	readers int
	writers int
}

type listener struct {
	port    int32
	backlog []*sock
	closed  bool
}

// sock is a bidirectional loopback byte stream. The "a" side is the VM
// process; the "b" side is either another VM socket or a host Conn.
//
// The open-file descriptions of both VM ends live inside the sock, so a
// connection costs one allocation: b is the file socket() returns,
// which becomes the connecting end, and a is the file accept()
// installs. A sock is dequeued from a backlog at most once, so a is
// filled at most once.
type sock struct {
	a2b, b2a []byte
	aOpen    bool
	bOpen    bool
	a, b     file
}

// fdTable is one process's descriptor table: a dense slice indexed by
// descriptor, as long as the highest descriptor it has held (lowest-free
// allocation keeps that short), and the count of live descriptors the
// MaxFDs cap applies to.
type fdTable struct {
	files []*file
	n     int
}

// get returns the open file at fd, or nil when fd is not open.
func (t *fdTable) get(fd int32) *file {
	if fd < 0 || int(fd) >= len(t.files) {
		return nil
	}
	return t.files[fd]
}

// add installs f at the lowest free descriptor at or above firstFD, as
// POSIX allocates, and returns it. The caller has checked room, so
// fewer than MaxFDs descriptors are live and the descriptor stays below
// fdSlots.
func (t *fdTable) add(f *file) int32 {
	fd := firstFD
	for fd < len(t.files) && t.files[fd] != nil {
		fd++
	}
	t.set(fd, f)
	return int32(fd)
}

// set installs f at descriptor fd (< fdSlots), growing the table to
// reach it; a descriptor already open there is replaced.
func (t *fdTable) set(fd int, f *file) {
	for fd >= len(t.files) {
		t.files = append(t.files, nil)
	}
	if t.files[fd] == nil {
		t.n++
	}
	t.files[fd] = f
}

// New creates an empty kernel.
func New() *Kernel {
	return &Kernel{
		fs:        make(map[string]*inode),
		tables:    make(map[int]*fdTable),
		listeners: make(map[int32]*listener),
	}
}

// AddFile installs a file into the in-memory file system.
func (k *Kernel) AddFile(path string, data []byte) {
	k.fs[path] = &inode{data: append([]byte(nil), data...)}
}

// FileData returns a copy of the named file's current contents.
func (k *Kernel) FileData(path string) ([]byte, bool) {
	n, ok := k.fs[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), n.data...), true
}

// NewProcess allocates a descriptor table for a process.
func (k *Kernel) NewProcess(pid int) {
	k.tables[pid] = &fdTable{}
}

// ReleaseProcess closes all descriptors of an exiting process.
func (k *Kernel) ReleaseProcess(pid int) {
	t := k.tables[pid]
	if t == nil {
		return
	}
	for fd, f := range t.files {
		if f != nil {
			k.closeFD(t, int32(fd))
		}
	}
	delete(k.tables, pid)
}

func (k *Kernel) table(pid int) *fdTable {
	t := k.tables[pid]
	if t == nil {
		t = &fdTable{}
		k.tables[pid] = t
	}
	return t
}

// room reports whether t can take need more descriptors, enforcing
// the table cap. The cap is MaxFDs, shrunk to the armed fd-pressure
// limit when that degradation is in effect; EMFILE under the shrunk
// limit marks the degradation tripped. This is the single
// descriptor-allocation authority — Open, Pipe, Socket and Accept all
// ask it before building anything, so the boundary check cannot
// drift between paths and a failing allocation allocates nothing.
func (k *Kernel) room(t *fdTable, need int) bool {
	max := MaxFDs
	if k.ex.fdsArmed && k.ex.fdsLimit < max {
		max = k.ex.fdsLimit
	}
	if t.n+need > max {
		if max < MaxFDs {
			k.ex.fdsTripped = true
		}
		return false
	}
	return true
}

// InstallAt force-installs a shared open file at a specific descriptor in
// a (child) process — the fd-inheritance half of spawn. It reports false
// when fromFD is not open or fd is outside the table.
func (k *Kernel) InstallAt(pid int, fd int32, from int, fromFD int32) bool {
	src := k.table(from).get(fromFD)
	if src == nil || fd < 0 || fd >= fdSlots {
		return false
	}
	if src.kind == filePipe {
		if src.rdEnd {
			src.pipe.readers++
		} else {
			src.pipe.writers++
		}
	}
	k.table(pid).set(int(fd), src)
	return true
}

// Open implements sys_open. Returns fd or -errno. An open that fails
// has no effect: every error (ENOENT, ENOSPC, EMFILE, in that order) is
// found before a node is created or O_TRUNC truncates, just as Linux
// allocates the descriptor before it touches the file.
func (k *Kernel) Open(pid int, path string, flags int32) int32 {
	node, exists := k.fs[path]
	if !exists {
		if flags&OCreat == 0 {
			return -ENOENT
		}
		// Creating a node consumes disk metadata: under an exhausted
		// quota the create itself fails, like a full file system.
		if k.diskRemaining() <= 0 {
			k.ex.diskTripped = true
			return -ENOSPC
		}
	}
	t := k.table(pid)
	if !k.room(t, 1) {
		return -EMFILE
	}
	if !exists {
		node = &inode{}
		k.fs[path] = node
	}
	if flags&OTrunc != 0 {
		node.data = nil
	}
	f := &file{kind: fileRegular, node: node, flags: flags}
	if flags&OAppend != 0 {
		f.pos = int32(len(node.data))
	}
	return t.add(f)
}

// Unlink implements sys_unlink.
func (k *Kernel) Unlink(pid int, path string) int32 {
	if _, ok := k.fs[path]; !ok {
		return -ENOENT
	}
	delete(k.fs, path)
	return 0
}

// Close implements sys_close.
func (k *Kernel) Close(pid int, fd int32) int32 {
	t := k.table(pid)
	if t.get(fd) == nil {
		return -EBADF
	}
	k.closeFD(t, fd)
	return 0
}

// closeFD releases the open descriptor fd of t.
func (k *Kernel) closeFD(t *fdTable, fd int32) {
	f := t.files[fd]
	t.files[fd] = nil
	t.n--
	switch f.kind {
	case filePipe:
		if f.rdEnd {
			f.pipe.readers--
		} else {
			f.pipe.writers--
		}
	case fileSocket:
		if f.mirror {
			f.sock.bOpen = false
		} else {
			f.sock.aOpen = false
		}
	case fileListener:
		f.lst.closed = true
		// Connections queued on the backlog will never be accepted: drop
		// the acceptor-side view so connected-but-unaccepted peers see
		// EOF on recv and EPIPE on send instead of blocking forever. A
		// crashed server releases its fds through this same path, which
		// is what lets a traffic driver observe the outage and move on.
		for _, s := range f.lst.backlog {
			s.aOpen = false
		}
		f.lst.backlog = nil
		delete(k.listeners, f.lst.port)
	}
}

// Read implements sys_read. blocked=true means the caller must retry (the
// VM keeps the process on the syscall instruction).
func (k *Kernel) Read(pid int, fd int32, n int32) (data []byte, ret int32, blocked bool) {
	f := k.table(pid).get(fd)
	if f == nil || n < 0 {
		if f == nil {
			return nil, -EBADF, false
		}
		return nil, -EINVAL, false
	}
	switch f.kind {
	case fileRegular:
		if f.flags&3 == OWronly {
			return nil, -EBADF, false
		}
		avail := int32(len(f.node.data)) - f.pos
		if avail <= 0 {
			return nil, 0, false // EOF
		}
		if n > avail {
			n = avail
		}
		out := f.node.data[f.pos : f.pos+n]
		f.pos += n
		return out, n, false
	case filePipe:
		if !f.rdEnd {
			return nil, -EBADF, false
		}
		if len(f.pipe.buf) == 0 {
			if f.pipe.writers == 0 {
				return nil, 0, false // EOF
			}
			return nil, 0, true // block until data or writer close
		}
		if int(n) > len(f.pipe.buf) {
			n = int32(len(f.pipe.buf))
		}
		out := append([]byte(nil), f.pipe.buf[:n]...)
		f.pipe.buf = f.pipe.buf[n:]
		return out, n, false
	case fileSocket:
		return sockRecv(f, n)
	}
	return nil, -EINVAL, false
}

// Write implements sys_write.
func (k *Kernel) Write(pid int, fd int32, data []byte) (ret int32, blocked bool) {
	f := k.table(pid).get(fd)
	if f == nil {
		return -EBADF, false
	}
	switch f.kind {
	case fileRegular:
		if f.flags&3 == ORdonly {
			return -EBADF, false
		}
		// Armed disk quota: fail with ENOSPC once exhausted, and cap the
		// last write to the remaining bytes (a partial write, as POSIX
		// allows on a filling disk). Zero-length writes always succeed.
		if len(data) > 0 {
			rem := k.diskRemaining()
			if rem <= 0 {
				k.ex.diskTripped = true
				return -ENOSPC, false
			}
			if int64(len(data)) > rem {
				data = data[:rem]
			}
		}
		// A write past the end grows the inode with amortized append;
		// an appending writer (a WAL) would otherwise copy the whole
		// file on every write. A hole left by a truncation behind this
		// descriptor's offset reads as zeroes.
		node := f.node
		if end := int(f.pos) + len(data); end > len(node.data) {
			if hole := int(f.pos) - len(node.data); hole > 0 {
				node.data = append(node.data, make([]byte, hole)...)
			}
			node.data = append(node.data[:f.pos], data...)
		} else {
			copy(node.data[f.pos:], data)
		}
		f.pos += int32(len(data))
		if k.ex.diskArmed {
			k.ex.diskWritten += int64(len(data))
		}
		return int32(len(data)), false
	case filePipe:
		if f.rdEnd {
			return -EBADF, false
		}
		if f.pipe.readers == 0 {
			return -EPIPE, false
		}
		space := pipeCap - len(f.pipe.buf)
		if space == 0 {
			return 0, true // block until the reader drains
		}
		n := len(data)
		if n > space {
			n = space // partial write, as POSIX pipes allow
		}
		f.pipe.buf = append(f.pipe.buf, data[:n]...)
		return int32(n), false
	case fileSocket:
		return sockSend(f, data)
	}
	return -EINVAL, false
}

// Pipe implements sys_pipe, returning the read and write descriptors.
// Pipe creation is all-or-nothing: unless both descriptors fit under
// the table cap it returns EMFILE and allocates nothing.
func (k *Kernel) Pipe(pid int) (rfd, wfd, errno int32) {
	t := k.table(pid)
	if !k.room(t, 2) {
		return 0, 0, EMFILE
	}
	p := &pipe{readers: 1, writers: 1}
	rfd = t.add(&file{kind: filePipe, pipe: p, rdEnd: true})
	wfd = t.add(&file{kind: filePipe, pipe: p})
	return rfd, wfd, 0
}

// Socket implements sys_socket.
func (k *Kernel) Socket(pid int) int32 {
	t := k.table(pid)
	if !k.room(t, 1) {
		return -EMFILE
	}
	s := &sock{aOpen: true}
	s.b = file{kind: fileSocket, sock: s}
	return t.add(&s.b)
}

// Listen implements sys_listen: binds the descriptor to a port and makes
// it a listener.
func (k *Kernel) Listen(pid int, fd, port int32) int32 {
	f := k.table(pid).get(fd)
	if f == nil {
		return -EBADF
	}
	if f.kind != fileSocket {
		return -EINVAL
	}
	if _, busy := k.listeners[port]; busy {
		return -EINVAL
	}
	l := &listener{port: port}
	f.kind = fileListener
	f.lst = l
	k.listeners[port] = l
	return 0
}

// Accept implements sys_accept.
func (k *Kernel) Accept(pid int, fd int32) (ret int32, blocked bool) {
	t := k.table(pid)
	f := t.get(fd)
	if f == nil {
		return -EBADF, false
	}
	if f.kind != fileListener {
		return -EINVAL, false
	}
	if len(f.lst.backlog) == 0 {
		return 0, true
	}
	// Allocate before dequeue: a failed allocation (EMFILE under fd
	// pressure) must not drop the established connection — it stays
	// queued and a later accept, once a descriptor frees up, serves it.
	if !k.room(t, 1) {
		return -EMFILE, false
	}
	s := f.lst.backlog[0]
	s.a = file{kind: fileSocket, sock: s}
	nfd := t.add(&s.a)
	// Shift rather than reslice, so a steady connect/accept cycle
	// reuses the backlog's array instead of reallocating it.
	n := copy(f.lst.backlog, f.lst.backlog[1:])
	f.lst.backlog[n] = nil
	f.lst.backlog = f.lst.backlog[:n]
	return nfd, false
}

// Connect implements sys_connect: connects a VM socket to a VM listener
// on the loopback "network".
func (k *Kernel) Connect(pid int, fd, port int32) int32 {
	f := k.table(pid).get(fd)
	if f == nil {
		return -EBADF
	}
	if f.kind != fileSocket {
		return -EINVAL
	}
	l, ok := k.listeners[port]
	if !ok || l.closed {
		return -ECONNREFUSED
	}
	// One shared stream pair: the acceptor holds the "a" view, the
	// connector the mirrored "b" view (send and recv buffers swapped).
	// A socket that has never connected owns its sock outright (sends
	// on it fail before buffering anything), so that sock becomes the
	// connection; a reconnecting socket gets a fresh one.
	s := f.sock
	if f != &s.b || f.mirror {
		s = &sock{}
		f.sock = s
	}
	s.aOpen, s.bOpen = true, true
	f.mirror = true
	l.backlog = append(l.backlog, s)
	return 0
}

func sockSend(f *file, data []byte) (int32, bool) {
	s := f.sock
	peerOpen := s.bOpen
	if f.mirror {
		peerOpen = s.aOpen
	}
	if !peerOpen {
		return -EPIPE, false
	}
	if f.mirror {
		s.b2a = append(s.b2a, data...)
	} else {
		s.a2b = append(s.a2b, data...)
	}
	return int32(len(data)), false
}

func sockRecv(f *file, n int32) ([]byte, int32, bool) {
	s := f.sock
	buf := &s.b2a
	peerOpen := s.bOpen
	if f.mirror {
		buf = &s.a2b
		peerOpen = s.aOpen
	}
	if len(*buf) == 0 {
		if !peerOpen {
			return nil, 0, false // peer closed: EOF
		}
		return nil, 0, true
	}
	if int(n) > len(*buf) {
		n = int32(len(*buf))
	}
	out := append([]byte(nil), (*buf)[:n]...)
	*buf = (*buf)[n:]
	return out, n, false
}

// ---------------------------------------------------------------------------
// Host-side (workload driver) endpoints
// ---------------------------------------------------------------------------

// Conn is a host-side connection to a VM listener, used by workload
// drivers (the AB and SysBench analogues) to exercise servers running in
// the VM.
type Conn struct {
	k *Kernel
	s *sock
}

// Dial connects the host side to a VM listener port. It fails with
// ECONNREFUSED semantics if nothing is listening.
func (k *Kernel) Dial(port int32) (*Conn, error) {
	l, ok := k.listeners[port]
	if !ok || l.closed {
		return nil, fmt.Errorf("kernel: dial port %d: connection refused", port)
	}
	s := &sock{aOpen: true, bOpen: true}
	l.backlog = append(l.backlog, s)
	return &Conn{k: k, s: s}, nil
}

// Send enqueues bytes for the VM side to recv.
func (c *Conn) Send(data []byte) {
	c.s.b2a = append(c.s.b2a, data...)
}

// Recv drains whatever the VM side has sent so far.
func (c *Conn) Recv() []byte {
	out := c.s.a2b
	c.s.a2b = nil
	return out
}

// PeerClosed reports whether the VM side has closed the connection.
func (c *Conn) PeerClosed() bool {
	return !c.s.aOpen
}

// Pending reports whether unread VM->host bytes are buffered.
func (c *Conn) Pending() bool {
	return len(c.s.a2b) > 0
}

// Close closes the host side of the connection.
func (c *Conn) Close() {
	c.s.bOpen = false
}
