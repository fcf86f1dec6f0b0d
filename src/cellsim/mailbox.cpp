#include "cellsim/mailbox.hpp"

#include <algorithm>

namespace cellsim {

Mailbox::Mailbox(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw MailboxFault("mailbox capacity must be >= 1");
}

std::size_t Mailbox::count() const {
  std::lock_guard lock(mu_);
  return std::min(fifo_.size(), capacity_);
}

void Mailbox::push_blocking(std::span<const MailboxEntry> entries) {
  if (entries.empty()) return;
  std::unique_lock lock(mu_);
  not_full_.wait(lock, [&] { return closed_ || fifo_.size() < capacity_; });
  if (closed_) throw MailboxFault("push on closed mailbox");
  fifo_.insert(fifo_.end(), entries.begin(), entries.end());
  not_empty_.wake_one(lock);
}

bool Mailbox::try_push(std::uint32_t value, simtime::SimTime stamp) {
  std::unique_lock lock(mu_);
  if (closed_) throw MailboxFault("push on closed mailbox");
  if (fifo_.size() >= capacity_) return false;
  fifo_.push_back(MailboxEntry{value, stamp});
  not_empty_.wake_one(lock);
  return true;
}

MailboxEntry Mailbox::pop_blocking() {
  std::unique_lock lock(mu_);
  not_empty_.wait(lock, [&] { return closed_ || !fifo_.empty(); });
  if (fifo_.empty()) throw MailboxFault("pop on closed mailbox");
  MailboxEntry e = fifo_.front();
  fifo_.pop_front();
  not_full_.wake_one();
  return e;
}

std::optional<simtime::SimTime> Mailbox::earliest_stamp() const {
  std::lock_guard lock(mu_);
  if (fifo_.empty()) return std::nullopt;
  return fifo_.front().stamp;
}

std::optional<MailboxEntry> Mailbox::try_pop() {
  std::lock_guard lock(mu_);
  if (fifo_.empty()) {
    if (closed_) throw MailboxFault("pop on closed mailbox");
    return std::nullopt;
  }
  MailboxEntry e = fifo_.front();
  fifo_.pop_front();
  not_full_.wake_one();
  return e;
}

void Mailbox::close() {
  std::unique_lock lock(mu_);
  closed_ = true;
  not_full_.wake_all();
  not_empty_.wake_all(lock);
}

bool Mailbox::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

}  // namespace cellsim
