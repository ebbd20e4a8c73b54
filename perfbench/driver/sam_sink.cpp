#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBlockBytes = 64 * 1024;

std::string_view field(std::string_view line, std::size_t index) {
    std::size_t start = 0;
    for (std::size_t i = 0; i < index; ++i) {
        const auto tab = line.find('\t', start);
        if (tab == std::string_view::npos) return {};
        start = tab + 1;
    }
    const auto tab = line.find('\t', start);
    return line.substr(start, tab == std::string_view::npos
                                  ? std::string_view::npos
                                  : tab - start);
}

std::int64_t to_int(std::string_view text) {
    std::int64_t value = -1;
    std::from_chars(text.data(), text.data() + text.size(), value);
    return value;
}

/// Simulated names are "simread.<i>" / "simpair.<i>[/1|/2]".
std::int64_t read_index(std::string_view qname) {
    const auto dot = qname.rfind('.');
    if (dot == std::string_view::npos) return -1;
    auto digits = qname.substr(dot + 1);
    const auto slash = digits.find('/');
    if (slash != std::string_view::npos) digits = digits.substr(0, slash);
    return to_int(digits);
}

} // namespace

Truth Truth::load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read truth table " + path);
    Truth truth;
    std::string kind;
    std::size_t n = 0;
    in >> kind >> n;
    truth.paired = kind == "paired";
    truth.pos1.resize(n);
    truth.reverse1.resize(n);
    truth.pos2.resize(truth.paired ? n : 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t a = 0, b = 0;
        if (!(in >> a >> b)) {
            throw std::runtime_error("truncated truth table " + path);
        }
        truth.pos1[i] = a;
        if (truth.paired) {
            truth.pos2[i] = b;
        } else {
            truth.reverse1[i] = static_cast<std::uint8_t>(b);
        }
    }
    return truth;
}

void Truth::save(const std::string& path) const {
    std::ofstream out(path);
    out << (paired ? "paired" : "single") << ' ' << size() << '\n';
    for (std::size_t i = 0; i < size(); ++i) {
        out << pos1[i] << ' '
            << (paired ? pos2[i] : std::uint32_t{reverse1[i]}) << '\n';
    }
    if (!out) throw std::runtime_error("cannot write truth table " + path);
}

SamSink::SamSink(const Truth* truth, Clock::time_point start)
    : truth_(truth), start_(start) {
    block_.reserve(kBlockBytes);
    if (truth_ != nullptr) {
        found1_.assign(truth_->size(), 0);
        found2_.assign(truth_->size(), 0);
    }
}

SamSink::int_type SamSink::overflow(int_type ch) {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
        return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    consume(&c, 1);
    return ch;
}

std::streamsize SamSink::xsputn(const char* data, std::streamsize n) {
    consume(data, static_cast<std::size_t>(n));
    return n;
}

void SamSink::hash_block(std::string_view block) {
    const std::uint64_t h = std::hash<std::string_view>{}(block);
    hash_ = (hash_ ^ h) * 0x100000001b3ULL;
}

void SamSink::consume(const char* data, std::size_t n) {
    bytes_ += n;
    // Fixed-size blocks: the digest sees the same block boundaries no
    // matter how the writer split its output.
    std::size_t offset = 0;
    while (offset < n) {
        const std::size_t take =
            std::min(n - offset, kBlockBytes - block_.size());
        block_.append(data + offset, take);
        offset += take;
        if (block_.size() == kBlockBytes) {
            hash_block(block_);
            block_.clear();
        }
    }

    std::string_view rest(data, n);
    while (!rest.empty()) {
        const auto newline = rest.find('\n');
        if (newline == std::string_view::npos) {
            partial_.append(rest);
            break;
        }
        if (partial_.empty()) {
            on_line(rest.substr(0, newline));
        } else {
            partial_.append(rest.substr(0, newline));
            on_line(partial_);
            partial_.clear();
        }
        rest.remove_prefix(newline + 1);
    }
}

void SamSink::on_line(std::string_view line) {
    if (line.empty() || line.front() == '@') return;
    ++records_;
    if (first_record_ < 0.0) {
        first_record_ = seconds_between(start_, Clock::now());
    }
    if (truth_ == nullptr) return;
    const std::int64_t index = read_index(field(line, 0));
    if (index < 0 ||
        static_cast<std::size_t>(index) >= truth_->size()) {
        return;
    }
    const auto flag = to_int(field(line, 1));
    if (flag < 0 || (flag & 0x4) != 0) return;
    const auto pos = to_int(field(line, 3)) - 1;
    const bool reverse = (flag & 0x10) != 0;
    const auto i = static_cast<std::size_t>(index);
    const auto near = [&](std::uint32_t origin) {
        const auto diff = pos - static_cast<std::int64_t>(origin);
        return diff >= -static_cast<std::int64_t>(kDelta) &&
               diff <= static_cast<std::int64_t>(kDelta);
    };
    if (!truth_->paired) {
        if (reverse == (truth_->reverse1[i] != 0) && near(truth_->pos1[i])) {
            found1_[i] = 1;
        }
    } else if ((flag & 0x80) != 0) {
        if (reverse && near(truth_->pos2[i])) found2_[i] = 1;
    } else if (!reverse && near(truth_->pos1[i])) {
        found1_[i] = 1;
    }
}

std::string SamSink::digest() {
    std::uint64_t h = hash_;
    if (!block_.empty()) {
        h = (h ^ std::hash<std::string_view>{}(block_)) * 0x100000001b3ULL;
    }
    h = (h ^ bytes_) * 0x100000001b3ULL;
    char text[40];
    std::snprintf(text, sizeof text, "%016llx-%llu",
                  static_cast<unsigned long long>(h),
                  static_cast<unsigned long long>(bytes_));
    return text;
}

std::size_t SamSink::recalled() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < found1_.size(); ++i) {
        if (found1_[i] != 0 && (!truth_->paired || found2_[i] != 0)) {
            ++count;
        }
    }
    return count;
}

} // namespace perfbench
