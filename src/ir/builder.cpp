#include "ir/builder.hpp"

#include "support/error.hpp"

namespace cypress::ir {

using dsl::E;
using dsl::Var;

void FunctionBuilder::emit(Instr instr) {
  CYP_CHECK(!terminated_, "emit after the function was terminated");
  f_->blocks[static_cast<size_t>(cur_)].instrs.push_back(std::move(instr));
}

int FunctionBuilder::startBlock(const std::string& name) {
  cur_ = f_->addBlock(name);
  terminated_ = false;
  return cur_;
}

void FunctionBuilder::finishFunction() {
  if (!terminated_) {
    f_->blocks[static_cast<size_t>(cur_)].term = Terminator::ret();
    terminated_ = true;
  }
}

Var FunctionBuilder::declare(const std::string& name, E init) {
  const int slot = f_->addVar(name);
  emit(Instr::assign(slot, std::move(init).take()));
  return Var{slot};
}

void FunctionBuilder::assign(Var var, E value) {
  emit(Instr::assign(var.slot, std::move(value).take()));
}

void FunctionBuilder::send(E dst, E bytes, E tag) {
  emit(Instr::mpi(MpiOp::Send, exprList(std::move(dst).take(), std::move(bytes).take(),
                                        std::move(tag).take())));
}

void FunctionBuilder::recv(E src, E bytes, E tag) {
  emit(Instr::mpi(MpiOp::Recv, exprList(std::move(src).take(), std::move(bytes).take(),
                                        std::move(tag).take())));
}

Var FunctionBuilder::isend(const std::string& reqName, E dst, E bytes, E tag) {
  const int slot = f_->addVar(reqName);
  emit(Instr::mpi(MpiOp::Isend,
                  exprList(std::move(dst).take(), std::move(bytes).take(),
                           std::move(tag).take()),
                  slot));
  return Var{slot};
}

Var FunctionBuilder::irecv(const std::string& reqName, E src, E bytes, E tag) {
  const int slot = f_->addVar(reqName);
  emit(Instr::mpi(MpiOp::Irecv,
                  exprList(std::move(src).take(), std::move(bytes).take(),
                           std::move(tag).take()),
                  slot));
  return Var{slot};
}

void FunctionBuilder::wait(Var request) {
  emit(Instr::mpi(MpiOp::Wait, {}, request.slot));
}
void FunctionBuilder::waitall() { emit(Instr::mpi(MpiOp::Waitall, {})); }
void FunctionBuilder::waitsome() { emit(Instr::mpi(MpiOp::Waitsome, {})); }
void FunctionBuilder::barrier() { emit(Instr::mpi(MpiOp::Barrier, {})); }

void FunctionBuilder::bcast(E root, E bytes) {
  emit(Instr::mpi(MpiOp::Bcast,
                  exprList(std::move(root).take(), std::move(bytes).take())));
}
void FunctionBuilder::reduce(E root, E bytes) {
  emit(Instr::mpi(MpiOp::Reduce,
                  exprList(std::move(root).take(), std::move(bytes).take())));
}
void FunctionBuilder::allreduce(E bytes) {
  emit(Instr::mpi(MpiOp::Allreduce, exprList(std::move(bytes).take())));
}
void FunctionBuilder::gather(E root, E bytes) {
  emit(Instr::mpi(MpiOp::Gather,
                  exprList(std::move(root).take(), std::move(bytes).take())));
}
void FunctionBuilder::scatter(E root, E bytes) {
  emit(Instr::mpi(MpiOp::Scatter,
                  exprList(std::move(root).take(), std::move(bytes).take())));
}
void FunctionBuilder::scan(E bytes) {
  emit(Instr::mpi(MpiOp::Scan, exprList(std::move(bytes).take())));
}

Var FunctionBuilder::commSplit(const std::string& name, E color, E key) {
  const int slot = f_->addVar(name);
  emit(Instr::mpi(MpiOp::CommSplit,
                  exprList(std::move(color).take(), std::move(key).take()), slot));
  return Var{slot};
}

void FunctionBuilder::allreduceOn(Var comm, E bytes) {
  Instr i = Instr::mpi(MpiOp::Allreduce, exprList(std::move(bytes).take()));
  i.commExpr = Expr::var(comm.slot);
  emit(std::move(i));
}

void FunctionBuilder::compute(E nanoseconds) {
  emit(Instr::compute(std::move(nanoseconds).take()));
}

void FunctionBuilder::callWithArgs(const std::string& callee,
                                   std::vector<ExprPtr> args) {
  emit(Instr::call(callee, std::move(args)));
}

void FunctionBuilder::forLoop(
    const std::string& name, E init, const std::function<E(E)>& cond,
    const std::function<void(FunctionBuilder&, Var)>& body) {
  const Var iv = declare(name, std::move(init));
  const int pre = cur_;
  const int header = startBlock("for.cond." + name);
  f_->blocks[static_cast<size_t>(pre)].term = Terminator::br(header);

  ExprPtr condExpr = cond(iv.ref()).p->clone();

  startBlock("for.body." + name);
  const int bodyBlock = cur_;
  body(*this, iv);
  if (!terminated_) {
    // i = i + 1
    emit(Instr::assign(iv.slot, Expr::binary(BinOp::Add, Expr::var(iv.slot),
                                             Expr::constant(1))));
    f_->blocks[static_cast<size_t>(cur_)].term = Terminator::br(header);
    terminated_ = true;
  }

  const int exit = startBlock("for.exit." + name);
  f_->blocks[static_cast<size_t>(header)].term =
      Terminator::condBr(std::move(condExpr), bodyBlock, exit);
}

void FunctionBuilder::whileLoop(const std::function<E()>& cond,
                                const std::function<void(FunctionBuilder&)>& body) {
  const int pre = cur_;
  const int header = startBlock("while.cond");
  f_->blocks[static_cast<size_t>(pre)].term = Terminator::br(header);
  ExprPtr condExpr = cond().p->clone();

  startBlock("while.body");
  const int bodyBlock = cur_;
  body(*this);
  if (!terminated_) {
    f_->blocks[static_cast<size_t>(cur_)].term = Terminator::br(header);
    terminated_ = true;
  }

  const int exit = startBlock("while.exit");
  f_->blocks[static_cast<size_t>(header)].term =
      Terminator::condBr(std::move(condExpr), bodyBlock, exit);
}

void FunctionBuilder::ifThen(E cond, const std::function<void(FunctionBuilder&)>& then) {
  const int condBlock = cur_;
  const int thenBlock = startBlock("if.then");
  then(*this);
  const int thenEnd = cur_;
  const bool thenTerminated = terminated_;
  const int join = startBlock("if.join");
  f_->blocks[static_cast<size_t>(condBlock)].term =
      Terminator::condBr(std::move(cond).take(), thenBlock, join);
  if (!thenTerminated)
    f_->blocks[static_cast<size_t>(thenEnd)].term = Terminator::br(join);
}

void FunctionBuilder::ifThenElse(E cond,
                                 const std::function<void(FunctionBuilder&)>& then,
                                 const std::function<void(FunctionBuilder&)>& els) {
  const int condBlock = cur_;
  const int thenBlock = startBlock("if.then");
  then(*this);
  const int thenEnd = cur_;
  const bool thenTerminated = terminated_;
  const int elseBlock = startBlock("if.else");
  els(*this);
  const int elseEnd = cur_;
  const bool elseTerminated = terminated_;
  const int join = startBlock("if.join");
  f_->blocks[static_cast<size_t>(condBlock)].term =
      Terminator::condBr(std::move(cond).take(), thenBlock, elseBlock);
  if (!thenTerminated)
    f_->blocks[static_cast<size_t>(thenEnd)].term = Terminator::br(join);
  if (!elseTerminated)
    f_->blocks[static_cast<size_t>(elseEnd)].term = Terminator::br(join);
}

void FunctionBuilder::ret() {
  CYP_CHECK(!terminated_, "double return");
  f_->blocks[static_cast<size_t>(cur_)].term = Terminator::ret();
  terminated_ = true;
  startBlock("dead");
}

Var FunctionBuilder::param(int index) const {
  CYP_CHECK(index >= 0 && index < f_->numParams, "parameter index out of range");
  return Var{index};
}

ProgramBuilder::ProgramBuilder() : module_(std::make_unique<Module>()) {}

FunctionBuilder& ProgramBuilder::function(const std::string& name,
                                          const std::vector<std::string>& params) {
  Function* f = module_->function(name);
  if (f == nullptr) {
    f = module_->addFunction(name, static_cast<int>(params.size()));
    for (const std::string& p : params) f->addVar(p);
    builders_.push_back(std::unique_ptr<FunctionBuilder>(new FunctionBuilder(f)));
    builders_.back()->startBlock("entry");
    return *builders_.back();
  }
  for (auto& b : builders_)
    if (b->f_ == f) return *b;
  CYP_FAIL("function '" << name << "' exists without a builder");
}

std::unique_ptr<Module> ProgramBuilder::finish() {
  CYP_CHECK(module_ != nullptr, "ProgramBuilder already consumed");
  for (auto& b : builders_) b->finishFunction();
  module_->numberCallSites();
  verify(*module_);
  return std::move(module_);
}

}  // namespace cypress::ir
