package vm

import (
	"lfi/internal/isa"
	"lfi/internal/kernel"
)

// doSyscall dispatches OpSyscall: number in R0, arguments in R1..R3,
// Linux-style result (-errno on failure) in R0. It returns false when the
// process blocks, leaving PC on the syscall instruction so the trap is
// retried on the next time slice.
func (p *Proc) doSyscall(next uint32) bool {
	num := int32(p.Regs[isa.R0])
	a, b, c := int32(p.Regs[isa.R1]), int32(p.Regs[isa.R2]), int32(p.Regs[isa.R3])
	k := p.Sys.kern

	ret := int32(0)
	switch num {
	case kernel.SysExit:
		p.exit(a)
		return true

	case kernel.SysAbort:
		p.kill(SigABRT)
		return true

	case kernel.SysGetpid:
		ret = int32(p.ID)

	case kernel.SysYield:
		ret = 0

	case kernel.SysBrk:
		ret = p.Brk(uint32(a))

	case kernel.SysOpen:
		path, err := p.ReadCString(uint32(a))
		if err != nil {
			ret = -kernel.EFAULT
		} else {
			ret = k.Open(p.ID, path, b)
		}

	case kernel.SysUnlink:
		path, err := p.ReadCString(uint32(a))
		if err != nil {
			ret = -kernel.EFAULT
		} else {
			ret = k.Unlink(p.ID, path)
		}

	case kernel.SysClose:
		ret = k.Close(p.ID, a)

	case kernel.SysRead, kernel.SysRecv:
		data, n, blocked := k.Read(p.ID, a, c)
		if blocked {
			p.blocked = true
			return false
		}
		if n > 0 {
			if err := p.WriteBytes(uint32(b), data); err != nil {
				n = -kernel.EFAULT
			}
		}
		ret = n

	case kernel.SysWrite, kernel.SysSend:
		data, err := p.ReadBytes(uint32(b), c)
		if err != nil {
			ret = -kernel.EFAULT
		} else {
			n, blocked := k.Write(p.ID, a, data)
			if blocked {
				p.blocked = true
				return false
			}
			ret = n
		}

	case kernel.SysPipe:
		rfd, wfd, errno := k.Pipe(p.ID)
		if errno != 0 {
			ret = -errno
		} else if p.WriteWord(uint32(a), rfd) != nil || p.WriteWord(uint32(a)+4, wfd) != nil {
			ret = -kernel.EFAULT
		}

	case kernel.SysSocket:
		ret = k.Socket(p.ID)

	case kernel.SysListen:
		ret = k.Listen(p.ID, a, b)

	case kernel.SysAccept:
		fd, blocked := k.Accept(p.ID, a)
		if blocked {
			p.blocked = true
			return false
		}
		ret = fd

	case kernel.SysConnect:
		ret = k.Connect(p.ID, a, b)

	case kernel.SysSpawn:
		ret = p.sysSpawn(a, b, c)

	case kernel.SysWait:
		st, blocked := p.sysWait(a, b)
		if blocked {
			p.blocked = true
			return false
		}
		ret = st

	default:
		ret = -kernel.ENOSYS
	}

	p.blocked = false
	p.Regs[isa.R0] = uint32(ret)
	p.PC = next
	if ret < 0 && p.Sys.spinLimit != 0 {
		p.failedSyscall(num, ret)
	}
	return true
}

// sysSpawn starts a registered program as a child of p, passing two
// descriptors that become the child's fd 0 and fd 1 (typically pipe ends,
// as in the Pidgin resolver scenario). Returns the child pid or -errno.
func (p *Proc) sysSpawn(nameAddr, fdIn, fdOut int32) int32 {
	name, err := p.ReadCString(uint32(nameAddr))
	if err != nil {
		return -kernel.EFAULT
	}
	if _, ok := p.Sys.programs[name]; !ok {
		return -kernel.ENOENT
	}
	cfg := SpawnConfig{
		Preload:    p.cfg.Preload, // children inherit LD_PRELOAD
		InheritFDs: map[int32]int32{0: fdIn, 1: fdOut},
		parent:     p,
	}
	child, err := p.Sys.Spawn(name, cfg)
	if err != nil {
		return -kernel.ENOMEM
	}
	return int32(child.ID)
}

// sysWait reaps an exited child. pid -1 waits for any child. Returns the
// child's pid (status written to statusAddr) or -errno; blocked=true when
// no child has exited yet.
func (p *Proc) sysWait(pid, statusAddr int32) (int32, bool) {
	anyAlive := false
	for _, ch := range p.children {
		if ch.reaped {
			continue
		}
		if pid != -1 && int32(ch.ID) != pid {
			continue
		}
		if !ch.Exited {
			anyAlive = true
			continue
		}
		ch.reaped = true
		if statusAddr != 0 {
			if err := p.WriteWord(uint32(statusAddr), ch.Status.wstatus()); err != nil {
				return -kernel.EFAULT, false
			}
		}
		return int32(ch.ID), false
	}
	if anyAlive {
		return 0, true
	}
	return -kernel.ECHILD, false
}
