package kernel

import "reflect"

// Snapshot is a frozen, immutable copy of a kernel's whole resource
// state: file system, per-process descriptor tables, pipes, sockets and
// listeners. It backs the VM's fork-server campaign runtime: one
// snapshot is taken from a template system after load, and every
// restored run receives its own private kernel so experiments cannot
// observe each other's file writes or descriptor churn.
//
// A Snapshot is safe for concurrent Restore calls from any number of
// goroutines. Host-side connections (Conn) are not captured — take the
// snapshot before workload drivers dial in.
type Snapshot struct {
	frozen *Kernel
}

// Snapshot deep-copies the kernel's current state into an immutable
// template.
func (k *Kernel) Snapshot() *Snapshot {
	return &Snapshot{frozen: k.clone()}
}

// Restore mints a fresh kernel from the template. Every call returns an
// independent deep copy: open-file descriptions, pipe buffers and inode
// contents are private to the restored kernel, while the sharing
// structure inside it (two descriptors referencing one pipe, a file
// inherited across processes) is preserved exactly. The frozen template
// is immutable, so concurrent Restores copy without taking any lock —
// no convoy on the per-experiment hot path.
func (s *Snapshot) Restore() *Kernel {
	return s.frozen.clone()
}

// Same reports whether k's whole resource state equals the snapshot's.
// The block engine's spin proofs (vm/spin.go) use it to show that a
// period left the kernel as it found it, so a blocked process cannot
// wake: the kernel has no clock of its own.
func (s *Snapshot) Same(k *Kernel) bool {
	return reflect.DeepEqual(s.frozen, k.clone())
}

// clone deep-copies the kernel, preserving aliasing: every *file,
// *inode, *pipe, *sock and *listener reachable from more than one place
// maps to exactly one copy. Only reads k, so concurrent clones of a
// frozen snapshot template need no lock.
func (k *Kernel) clone() *Kernel {
	out := New()
	inodes := make(map[*inode]*inode)
	pipes := make(map[*pipe]*pipe)
	socks := make(map[*sock]*sock)
	lsts := make(map[*listener]*listener)
	files := make(map[*file]*file)

	cloneInode := func(n *inode) *inode {
		if n == nil {
			return nil
		}
		if c, ok := inodes[n]; ok {
			return c
		}
		c := &inode{data: append([]byte(nil), n.data...)}
		inodes[n] = c
		return c
	}
	cloneSock := func(s *sock) *sock {
		if s == nil {
			return nil
		}
		if c, ok := socks[s]; ok {
			return c
		}
		c := &sock{
			a2b:   append([]byte(nil), s.a2b...),
			b2a:   append([]byte(nil), s.b2a...),
			aOpen: s.aOpen,
			bOpen: s.bOpen,
		}
		socks[s] = c
		return c
	}
	cloneListener := func(l *listener) *listener {
		if l == nil {
			return nil
		}
		if c, ok := lsts[l]; ok {
			return c
		}
		c := &listener{port: l.port, closed: l.closed}
		lsts[l] = c
		for _, s := range l.backlog {
			c.backlog = append(c.backlog, cloneSock(s))
		}
		return c
	}
	cloneFile := func(f *file) *file {
		if f == nil {
			return nil
		}
		if c, ok := files[f]; ok {
			return c
		}
		// A file embedded in its sock clones into the cloned sock, so
		// the clone keeps the one-allocation connection layout.
		var c *file
		switch {
		case f.sock != nil && f == &f.sock.a:
			c = &cloneSock(f.sock).a
		case f.sock != nil && f == &f.sock.b:
			c = &cloneSock(f.sock).b
		default:
			c = new(file)
		}
		*c = file{
			kind:   f.kind,
			node:   cloneInode(f.node),
			pos:    f.pos,
			flags:  f.flags,
			rdEnd:  f.rdEnd,
			sock:   cloneSock(f.sock),
			mirror: f.mirror,
			lst:    cloneListener(f.lst),
		}
		if f.pipe != nil {
			p, ok := pipes[f.pipe]
			if !ok {
				p = &pipe{
					buf:     append([]byte(nil), f.pipe.buf...),
					readers: f.pipe.readers,
					writers: f.pipe.writers,
				}
				pipes[f.pipe] = p
			}
			c.pipe = p
		}
		files[f] = c
		return c
	}

	for path, n := range k.fs {
		out.fs[path] = cloneInode(n)
	}
	for pid, t := range k.tables {
		ct := &fdTable{files: make([]*file, len(t.files)), n: t.n}
		for fd, f := range t.files {
			if f != nil {
				ct.files[fd] = cloneFile(f)
			}
		}
		out.tables[pid] = ct
	}
	for port, l := range k.listeners {
		out.listeners[port] = cloneListener(l)
	}
	// Armed degradation state (disk quota, fd pressure) is plain values:
	// a struct copy carries it bit-identically, so a kernel restored
	// mid-degradation keeps failing exactly where the original would.
	out.ex = k.ex
	return out
}
