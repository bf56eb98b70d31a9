#include "vm/vm.hpp"

#include "support/error.hpp"

namespace cypress::vm {

namespace {

/// Expression environment bound to a frame.
class FrameEnv final : public ir::VarSource {
 public:
  FrameEnv(const std::vector<int64_t>& vars, int rank, int size)
      : vars_(vars), rank_(rank), size_(size) {}
  int64_t var(int slot) const override {
    CYP_CHECK(slot >= 0 && static_cast<size_t>(slot) < vars_.size(),
              "var slot " << slot << " out of range");
    return vars_[static_cast<size_t>(slot)];
  }
  int64_t rank() const override { return rank_; }
  int64_t size() const override { return size_; }

 private:
  const std::vector<int64_t>& vars_;
  int rank_, size_;
};

}  // namespace

RankVM::RankVM(const ir::Module& m, int rank, simmpi::Engine& engine,
               trace::Observer* observer)
    : module_(m), rank_(rank), engine_(engine), observer_(observer) {
  const ir::Function* main = m.function(m.entry);
  CYP_CHECK(main != nullptr, "module has no entry function");
  CYP_CHECK(main->numParams == 0, "entry function must take no parameters");
  if (observer_) engine_.deferEvents(rank);
  pushFrame(main, {});
}

int64_t RankVM::eval(const ir::Expr& e) const {
  FrameEnv env(frames_.back().vars, rank_, engine_.numRanks());
  return ir::evalExpr(e, env);
}

void RankVM::countInstr() {
  CYP_CHECK(++instructions_ <= instructionLimit_,
            "rank " << rank_ << " exceeded the instruction limit — runaway loop?");
}

void RankVM::pushFrame(const ir::Function* fn, std::vector<int64_t> args) {
  Frame f;
  f.fn = fn;
  f.vars.assign(static_cast<size_t>(fn->numVars()), 0);
  for (size_t i = 0; i < args.size(); ++i) f.vars[i] = args[i];
  frames_.push_back(std::move(f));
}

void RankVM::popFrame() {
  const ir::Function* fn = frames_.back().fn;
  frames_.pop_back();
  if (!frames_.empty() && observer_) observer_->onCallExit(fn->name);
  if (frames_.empty()) {
    // The program is done, but finalizeRank() calls the commit-thread
    // observer — a journal recorder writes into a shared builder — so
    // it is deferred to the commit phase, where it runs in rank order.
    finished_ = true;
    needsFinalize_ = true;
  }
}

const ir::Instr* RankVM::currentInstr() const {
  const Frame& f = frames_.back();
  const auto& instrs = f.fn->blocks[static_cast<size_t>(f.block)].instrs;
  if (f.instr < instrs.size()) return &instrs[f.instr];
  return nullptr;
}

bool RankVM::executeInstr(const ir::Instr& i) {
  Frame& f = frames_.back();
  switch (i.kind) {
    case ir::InstrKind::Assign:
      f.vars[static_cast<size_t>(i.destVar)] = eval(*i.expr);
      return true;
    case ir::InstrKind::Compute: {
      const int64_t ns = eval(*i.expr);
      CYP_CHECK(ns >= 0, "rank " << rank_ << ": negative compute() cost");
      engine_.addCompute(rank_, static_cast<uint64_t>(ns));
      return true;
    }
    case ir::InstrKind::StructEnter:
      if (observer_) observer_->onStructEnter(i.structId, -1);
      return true;
    case ir::InstrKind::StructExit:
      if (observer_) observer_->onStructExit(i.structId);
      return true;
    case ir::InstrKind::Call: {
      const ir::Function* callee = module_.function(i.callee);
      CYP_CHECK(callee != nullptr, "call to unknown function " << i.callee);
      std::vector<int64_t> args;
      args.reserve(i.callArgs.size());
      for (const auto& a : i.callArgs) args.push_back(eval(*a));
      if (observer_) observer_->onCallEnter(i.callInstrId, i.callee);
      // Advance past the call before pushing so the frame resumes after it.
      ++f.instr;
      pushFrame(callee, std::move(args));
      // Signal the caller loop to not advance again.
      return false;
    }
    case ir::InstrKind::MpiCall:
      CYP_FAIL("MpiCall reached executeInstr — handled by the commit phase");
  }
  CYP_FAIL("bad instr kind");
}

simmpi::OpDesc RankVM::buildOpDesc(const ir::Instr& i) const {
  const Frame& f = frames_.back();
  simmpi::OpDesc d;
  d.op = i.mpiOp;
  d.callSiteId = i.callSiteId;
  if (i.commExpr) d.comm = static_cast<int32_t>(eval(*i.commExpr));
  switch (i.mpiOp) {
    case ir::MpiOp::Send:
    case ir::MpiOp::Isend:
    case ir::MpiOp::Recv:
    case ir::MpiOp::Irecv:
      d.peer = static_cast<int32_t>(eval(*i.args[0]));
      d.bytes = eval(*i.args[1]);
      d.tag = static_cast<int32_t>(eval(*i.args[2]));
      break;
    case ir::MpiOp::Bcast:
    case ir::MpiOp::Reduce:
    case ir::MpiOp::Gather:
    case ir::MpiOp::Scatter:
      d.peer = static_cast<int32_t>(eval(*i.args[0]));
      d.bytes = eval(*i.args[1]);
      break;
    case ir::MpiOp::Allreduce:
    case ir::MpiOp::Allgather:
    case ir::MpiOp::Alltoall:
    case ir::MpiOp::Scan:
      d.bytes = eval(*i.args[0]);
      break;
    case ir::MpiOp::Wait:
      d.waitReqId = f.vars[static_cast<size_t>(i.reqVar)];
      break;
    case ir::MpiOp::CommSplit:
      d.color = static_cast<int32_t>(eval(*i.args[0]));
      d.key = static_cast<int32_t>(eval(*i.args[1]));
      break;
    case ir::MpiOp::Waitall:
    case ir::MpiOp::Waitany:
    case ir::MpiOp::Waitsome:
    case ir::MpiOp::Barrier:
      break;
  }
  return d;
}

void RankVM::executeTerminator() {
  Frame& f = frames_.back();
  const ir::Terminator& t = f.fn->blocks[static_cast<size_t>(f.block)].term;
  switch (t.kind) {
    case ir::TermKind::Br:
      f.block = t.target;
      f.instr = 0;
      return;
    case ir::TermKind::CondBr:
      f.block = eval(*t.cond) != 0 ? t.target : t.elseTarget;
      f.instr = 0;
      return;
    case ir::TermKind::Ret:
      popFrame();
      return;
  }
}

void RankVM::drainEvents() {
  if (observer_) engine_.drainEvents(rank_, *observer_);
}

uint64_t RankVM::runLocal() {
  // The events committed since the last slice come before any marker
  // this slice emits, exactly as if they had been delivered at commit.
  drainEvents();
  if (finished_ || waitingOnEngine_ || atMpi_) return 0;

  const uint64_t before = instructions_;
  while (!finished_) {
    const ir::Instr* i = currentInstr();
    if (i == nullptr) {
      countInstr();
      executeTerminator();
      continue;
    }
    if (i->kind == ir::InstrKind::MpiCall) {
      // Argument evaluation is rank-local, so it belongs in the parallel
      // phase; the call itself is issued at commit and counted there.
      pendingDesc_ = buildOpDesc(*i);
      atMpi_ = true;
      break;
    }
    countInstr();
    if (executeInstr(*i)) ++frames_.back().instr;
    // else: a Call pushed a frame; continue in the callee.
  }
  return instructions_ - before;
}

bool RankVM::commitStep() {
  if (needsFinalize_) {
    engine_.finalizeRank(rank_);
    if (observer_) {
      drainEvents();
      observer_->onFinalize();
    }
    needsFinalize_ = false;
    return true;
  }
  if (waitingOnEngine_) {
    if (engine_.poll(rank_) == simmpi::OpStatus::Blocked) return false;
    waitingOnEngine_ = false;
    const ir::Instr* blocked = currentInstr();
    if (blocked != nullptr && blocked->kind == ir::InstrKind::MpiCall &&
        blocked->mpiOp == ir::MpiOp::CommSplit) {
      frames_.back().vars[static_cast<size_t>(blocked->reqVar)] =
          engine_.takeOpResult(rank_);
    }
    ++frames_.back().instr;  // past the blocking MPI instruction
    return true;
  }
  if (atMpi_) {
    atMpi_ = false;
    countInstr();
    const ir::Instr& i = *currentInstr();
    int64_t reqId = -1;
    const simmpi::OpStatus st = engine_.execute(rank_, pendingDesc_, &reqId);
    if (st == simmpi::OpStatus::Failed) {
      // Killed by the fault plan: abandon the frame stack without
      // finalizing the rank or its observer.
      died_ = true;
      finished_ = true;
      return true;
    }
    Frame& f = frames_.back();
    if (ir::isNonBlockingStart(i.mpiOp))
      f.vars[static_cast<size_t>(i.reqVar)] = reqId;
    if (st == simmpi::OpStatus::Blocked) {
      waitingOnEngine_ = true;
      return true;  // issuing counts as progress even when it blocks
    }
    if (i.mpiOp == ir::MpiOp::CommSplit)
      f.vars[static_cast<size_t>(i.reqVar)] = engine_.takeOpResult(rank_);
    ++f.instr;
    return true;
  }
  return false;
}

}  // namespace cypress::vm
