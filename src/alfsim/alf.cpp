#include "alfsim/alf.hpp"

#include <algorithm>
#include <stdexcept>

#include "cellsim/libspe2.hpp"
#include "cellsim/spu.hpp"

namespace alf {

namespace {

/// Trampoline state for the accelerator program (one per worker thread).
struct AcceleratorArgs {
  Task* task;
  unsigned lane;
};

thread_local AcceleratorArgs* t_args = nullptr;

}  // namespace

Runtime::Runtime(cellsim::CellBlade& blade, const simtime::CostModel& cost)
    : blade_(&blade), cost_(&cost) {}

std::unique_ptr<Task> Runtime::create_task(TaskDesc desc, unsigned first_spe) {
  if (desc.kernel == nullptr) {
    throw std::invalid_argument("alf: task needs a kernel");
  }
  if (desc.in_block_bytes == 0 && desc.out_block_bytes == 0) {
    throw std::invalid_argument("alf: task moves no data");
  }
  if (desc.accelerators == 0 ||
      first_spe + desc.accelerators > blade_->spe_count()) {
    throw std::invalid_argument("alf: accelerator range exceeds the blade");
  }
  return std::unique_ptr<Task>(new Task(*blade_, *cost_, desc, first_spe));
}

Task::Task(cellsim::CellBlade& blade, const simtime::CostModel& cost,
           TaskDesc desc, unsigned first_spe)
    : blade_(&blade), cost_(&cost), desc_(desc) {
  per_spe_.assign(desc_.accelerators, 0);
  workers_.reserve(desc_.accelerators);
  for (unsigned lane = 0; lane < desc_.accelerators; ++lane) {
    const unsigned spe_index = first_spe + lane;
    workers_.emplace_back(
        [this, spe_index, lane] { accelerator_main(spe_index, lane); });
  }
}

Task::~Task() { wait(); }

void Task::add_work_block(const void* in, void* out) {
  std::lock_guard lock(mu_);
  if (finalized_) {
    throw std::invalid_argument("alf: add_work_block after finalize");
  }
  queue_.push_back(WorkBlock{in, out});
  work_.wake_one();
}

void Task::finalize() {
  std::lock_guard lock(mu_);
  finalized_ = true;
  work_.wake_all();
}

bool Task::pop_block(WorkBlock* out) {
  std::unique_lock lock(mu_);
  work_.wait(lock, [&] { return finalized_ || !queue_.empty(); });
  if (queue_.empty()) return false;
  *out = queue_.front();
  queue_.pop_front();
  return true;
}

void Task::accelerator_main(unsigned spe_index, unsigned lane) {
  cellsim::Spe& spe = blade_->spe(spe_index);
  AcceleratorArgs args{this, lane};
  t_args = &args;

  // The accelerator-side ALF runtime: a work-block pump with (optionally)
  // double-buffered input DMA.  Tag g holds the "current" buffer's get;
  // tag 1-g the prefetch.
  const cellsim::spe2::SpeEntry entry =
      +[](std::uint64_t, std::uint64_t, std::uint64_t) -> int {
    Task* task = t_args->task;
    const unsigned lane_id = t_args->lane;
    const TaskDesc& desc = task->desc_;
    auto& clock = cellsim::spu::self().clock();

    const std::size_t in_sz = std::max<std::size_t>(desc.in_block_bytes, 16);
    const std::size_t out_sz =
        std::max<std::size_t>(desc.out_block_bytes, 16);
    const cellsim::LsAddr in_buf[2] = {
        cellsim::spu::ls_alloc(in_sz, 128),
        desc.double_buffer ? cellsim::spu::ls_alloc(in_sz, 128)
                           : cellsim::LsAddr{0}};
    const cellsim::LsAddr out_ls = cellsim::spu::ls_alloc(out_sz, 128);

    WorkBlock current{};
    bool have_current = task->pop_block(&current);
    unsigned g = 0;  // buffer/tag of the current block
    if (have_current && desc.in_block_bytes > 0) {
      cellsim::spu::mfc_get_any(in_buf[0], cellsim::ea_of(current.in),
                                desc.in_block_bytes, 0);
    }

    while (have_current) {
      // Start the next block's input DMA before computing (double buffer).
      WorkBlock next{};
      bool have_next = false;
      if (desc.double_buffer) {
        have_next = task->pop_block(&next);
        if (have_next && desc.in_block_bytes > 0) {
          cellsim::spu::mfc_get_any(in_buf[1 - g],
                                    cellsim::ea_of(next.in),
                                    desc.in_block_bytes, 1 - g);
        }
      }

      // Await this block's input, run the kernel, push the output.
      if (desc.in_block_bytes > 0) {
        cellsim::spu::mfc_write_tag_mask(1u << g);
        cellsim::spu::mfc_read_tag_status_all();
      }
      desc.kernel(
          cellsim::spu::ls_ptr(in_buf[desc.double_buffer ? g : 0], in_sz),
          desc.in_block_bytes, cellsim::spu::ls_ptr(out_ls, out_sz),
          desc.out_block_bytes);
      clock.advance(desc.compute_per_block);
      if (desc.out_block_bytes > 0) {
        cellsim::spu::mfc_put_any(out_ls, cellsim::ea_of(current.out),
                                  desc.out_block_bytes, g);
        cellsim::spu::mfc_write_tag_mask(1u << g);
        cellsim::spu::mfc_read_tag_status_all();
      }
      {
        std::lock_guard lock(task->mu_);
        ++task->processed_;
        ++task->per_spe_[lane_id];
      }

      if (!desc.double_buffer) {
        have_next = task->pop_block(&next);
        if (have_next && desc.in_block_bytes > 0) {
          cellsim::spu::mfc_get_any(in_buf[0], cellsim::ea_of(next.in),
                                    desc.in_block_bytes, 0);
        }
      } else {
        g = 1 - g;
      }
      current = next;
      have_current = have_next;
    }
    return 0;
  };

  const cellsim::spe2::spe_program_handle_t program{
      "alf_accelerator", entry, desc_.kernel_text_bytes};
  cellsim::spe2::SpeContext ctx(spe);
  ctx.run(program, 0, 0);
  t_args = nullptr;
}

void Task::wait() {
  {
    std::lock_guard lock(mu_);
    finalized_ = true;
    work_.wake_all();
    if (joined_) return;
    joined_ = true;
  }
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Task completion in virtual time: the latest accelerator clock.
  simtime::SimTime latest = 0;
  for (unsigned i = 0; i < blade_->spe_count(); ++i) {
    latest = std::max(latest, blade_->spe(i).clock().now());
  }
  elapsed_ = latest;
}

std::uint64_t Task::blocks_processed() const {
  std::lock_guard lock(mu_);
  return processed_;
}

std::vector<std::uint64_t> Task::per_accelerator_blocks() const {
  std::lock_guard lock(mu_);
  return per_spe_;
}

}  // namespace alf
