package ccc

import (
	"slices"
	"testing"

	"repro/internal/query"
)

// check analyzes src and asserts presence/absence of a category.
func check(t *testing.T, src string, cat Category, want bool) Report {
	t.Helper()
	rep, err := AnalyzeSource(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := rep.HasCategory(cat); got != want {
		t.Errorf("category %s: got %v want %v\nfindings: %v", cat, got, want, rep.Findings)
	}
	return rep
}

// --- Reentrancy --------------------------------------------------------------

const reentrantSrc = `contract Vault {
	mapping(address => uint) balances;
	function withdraw() public {
		uint amount = balances[msg.sender];
		msg.sender.call{value: amount}("");
		balances[msg.sender] = 0;
	}
}`

func TestReentrancyDetected(t *testing.T) {
	check(t, reentrantSrc, Reentrancy, true)
}

func TestReentrancyChecksEffectsInteractions(t *testing.T) {
	// State zeroed before the call: no finding.
	src := `contract Vault {
		mapping(address => uint) balances;
		function withdraw() public {
			uint amount = balances[msg.sender];
			balances[msg.sender] = 0;
			msg.sender.call{value: amount}("");
		}
	}`
	check(t, src, Reentrancy, false)
}

func TestReentrancyTransferSafe(t *testing.T) {
	// transfer() forwards only 2300 gas: no reentrancy.
	src := `contract Vault {
		mapping(address => uint) balances;
		function withdraw() public {
			msg.sender.transfer(balances[msg.sender]);
			balances[msg.sender] = 0;
		}
	}`
	check(t, src, Reentrancy, false)
}

func TestReentrancyMutexMitigated(t *testing.T) {
	src := `contract Vault {
		mapping(address => uint) balances;
		bool locked;
		function withdraw() public {
			require(!locked);
			locked = true;
			msg.sender.call{value: balances[msg.sender]}("");
			balances[msg.sender] = 0;
			locked = false;
		}
	}`
	check(t, src, Reentrancy, false)
}

// TestReentrancyMutexVerdictDeterministic: this generated snippet (dataset
// seed 1, scale 0.1, ese-924-s2) is the reentrancy-dao template flattened
// into statements. Its branch reads three inferred fields: grants, written
// by the deposit before the branch, and amount and recipient, never
// written. The mutex check must weigh all of them, not whichever one a map
// iteration yielded last, and a deposit ahead of the branch is not a lock:
// every analysis reports Reentrancy.
func TestReentrancyMutexVerdictDeterministic(t *testing.T) {
	src := "\t\temit Trace13437(65);\n\t\tslot89711 = 6968;\ngrants[recipient] += msg.value;\n" +
		"if (grants[msg.sender] >= amount) {\n\t\t\tmsg.sender.call{value: amount}(\"\");\n" +
		"\t\t\tgrants[msg.sender] -= amount;\n\t\t}\nrequire(grants[msg.sender] >= amount);"
	var first []Category
	for i := 0; i < 50; i++ {
		rep, err := AnalyzeSource(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		got := rep.Categories()
		if i == 0 {
			if !slices.Contains(got, Reentrancy) {
				t.Fatalf("categories %v, want Reentrancy among them\nfindings: %v", got, rep.Findings)
			}
			first = got
			continue
		}
		if !slices.Equal(got, first) {
			t.Fatalf("call %d reported %v, call 0 reported %v", i, got, first)
		}
	}
}

func TestReentrancySnippetOnly(t *testing.T) {
	// Incomplete snippet: just the vulnerable function.
	src := `function withdraw() public {
		uint amount = balances[msg.sender];
		msg.sender.call{value: amount}("");
		balances[msg.sender] = 0;
	}`
	rep, err := AnalyzeSource(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !rep.HasCategory(Reentrancy) {
		t.Errorf("snippet-level reentrancy missed: %v", rep.Findings)
	}
}

// --- Access Control ----------------------------------------------------------

func TestAccessControlUnprotectedOwnerWrite(t *testing.T) {
	src := `contract Wallet {
		address owner;
		function init(address o) public { owner = o; }
		function withdraw() public {
			require(msg.sender == owner);
			msg.sender.transfer(address(this).balance);
		}
	}`
	check(t, src, AccessControl, true)
}

func TestAccessControlGuardedOwnerWrite(t *testing.T) {
	src := `contract Wallet {
		address owner;
		function setOwner(address o) public {
			require(msg.sender == owner);
			owner = o;
		}
		function withdraw() public {
			require(msg.sender == owner);
			msg.sender.transfer(address(this).balance);
		}
	}`
	check(t, src, AccessControl, false)
}

func TestAccessControlModifierGuardRecognized(t *testing.T) {
	src := `contract Wallet {
		address owner;
		modifier onlyOwner() { require(msg.sender == owner); _; }
		function setOwner(address o) public onlyOwner { owner = o; }
		function auth() public { require(msg.sender == owner); }
	}`
	check(t, src, AccessControl, false)
}

func TestSelfdestructUnprotected(t *testing.T) {
	src := `contract Killable {
		function kill() public { selfdestruct(msg.sender); }
	}`
	check(t, src, AccessControl, true)
}

func TestSelfdestructGuarded(t *testing.T) {
	src := `contract Killable {
		address owner;
		function kill() public {
			require(msg.sender == owner);
			selfdestruct(msg.sender);
		}
	}`
	check(t, src, AccessControl, false)
}

func TestDefaultProxyDelegate(t *testing.T) {
	// The Parity wallet pattern from Section 4.4.
	src := `contract Proxy {
		address lib;
		function () payable { lib.delegatecall(msg.data); }
	}`
	check(t, src, AccessControl, true)
}

func TestDefaultProxyDelegateSanitized(t *testing.T) {
	src := `contract Proxy {
		address lib;
		function () payable {
			if (msg.data[0] == 0x2e) { revert(); }
			lib.delegatecall(msg.data);
		}
	}`
	check(t, src, AccessControl, false)
}

func TestTxOriginBranch(t *testing.T) {
	src := `contract Phishable {
		address owner;
		function withdrawAll(address dest) public {
			require(tx.origin == owner);
			dest.transfer(address(this).balance);
		}
	}`
	check(t, src, AccessControl, true)
}

func TestTxOriginVsMsgSenderLegit(t *testing.T) {
	src := `contract C {
		address owner;
		function f() public {
			require(tx.origin == msg.sender);
			counter = counter + 1;
		}
		uint counter;
	}`
	rep, err := AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Rule == "access-control-tx-origin" {
			t.Errorf("tx.origin != msg.sender check flagged: %v", f)
		}
	}
}

// --- Arithmetic ---------------------------------------------------------------

func TestArithmeticOverflowDetected(t *testing.T) {
	src := `contract Token {
		mapping(address => uint) balances;
		function transfer(address to, uint value) public {
			balances[msg.sender] -= value;
			balances[to] += value;
		}
	}`
	check(t, src, Arithmetic, true)
}

func TestArithmeticGuardedByRequire(t *testing.T) {
	src := `contract Token {
		mapping(address => uint) balances;
		function transfer(address to, uint value) public {
			require(balances[msg.sender] >= value);
			balances[msg.sender] -= value;
			balances[to] += value;
		}
	}`
	check(t, src, Arithmetic, false)
}

func TestArithmeticConstantsSafe(t *testing.T) {
	src := `contract Counter {
		uint count;
		function bump() public { count += 1; }
	}`
	check(t, src, Arithmetic, false)
}

// --- Unchecked low level calls -------------------------------------------------

func TestUncheckedSend(t *testing.T) {
	src := `contract Payout {
		function pay(address to, uint amount) public {
			to.send(amount);
			paid = true;
		}
		bool paid;
	}`
	check(t, src, UncheckedCalls, true)
}

func TestCheckedSend(t *testing.T) {
	src := `contract Payout {
		function pay(address to, uint amount) public {
			require(to.send(amount));
			paid = true;
		}
		bool paid;
	}`
	check(t, src, UncheckedCalls, false)
}

func TestCheckedSendIf(t *testing.T) {
	src := `contract Payout {
		function pay(address to, uint amount) public {
			bool ok = to.send(amount);
			if (!ok) { revert(); }
			paid = true;
		}
		bool paid;
	}`
	check(t, src, UncheckedCalls, false)
}

func TestUncheckedLowLevelCall(t *testing.T) {
	src := `contract C {
		function f(address target, bytes memory data) public {
			target.call(data);
			done = true;
		}
		bool done;
	}`
	check(t, src, UncheckedCalls, true)
}

// --- Bad randomness -------------------------------------------------------------

func TestBadRandomnessLottery(t *testing.T) {
	src := `contract Lottery {
		function play() public payable {
			uint rand = uint(keccak256(block.difficulty, block.number));
			if (rand % 2 == 0) {
				msg.sender.transfer(address(this).balance);
			}
		}
	}`
	check(t, src, BadRandomness, true)
}

func TestBlockNumberLegitimateUse(t *testing.T) {
	src := `contract C {
		uint startBlock;
		function record() public { emit Snapshot(block.number); }
		event Snapshot(uint at);
	}`
	check(t, src, BadRandomness, false)
}

// --- Time manipulation ------------------------------------------------------------

func TestTimeManipulationPayout(t *testing.T) {
	src := `contract Roulette {
		function bet() public payable {
			if (now % 15 == 0) {
				msg.sender.transfer(address(this).balance);
			}
		}
	}`
	check(t, src, TimeManipulation, true)
}

func TestTimestampUnusedBenign(t *testing.T) {
	src := `contract C {
		function f() public { uint t = block.timestamp; t = t; }
	}`
	check(t, src, TimeManipulation, false)
}

// --- Denial of service -------------------------------------------------------------

func TestDosTransferBlocksSends(t *testing.T) {
	src := `contract Auction {
		address leader;
		uint bid;
		function outbid() public payable {
			leader.transfer(bid);
			msg.sender.transfer(1);
		}
	}`
	check(t, src, DenialOfService, true)
}

func TestDosSendBlocksState(t *testing.T) {
	src := `contract Auction {
		address king;
		uint prize;
		function claim() public payable {
			king.transfer(prize);
			king = msg.sender;
			prize = msg.value;
		}
	}`
	check(t, src, DenialOfService, true)
}

func TestDosExpensiveLoopUserBound(t *testing.T) {
	src := `contract Airdrop {
		mapping(address => uint) credit;
		address[] users;
		function distribute(uint n) public {
			for (uint i = 0; i < n; i++) {
				credit[users[i]] += 1;
			}
		}
	}`
	check(t, src, DenialOfService, true)
}

func TestLoopConstantSmallBoundSafe(t *testing.T) {
	src := `contract C {
		uint total;
		function f() public {
			uint acc = 0;
			for (uint i = 0; i < 10; i++) { acc += i; }
			total = acc;
		}
	}`
	rep, err := AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Rule == "dos-expensive-loop" {
			t.Errorf("small constant loop flagged: %v", f)
		}
	}
}

func TestDosClearableCollection(t *testing.T) {
	src := `contract Dividends {
		address[] payees;
		function reset(address[] memory newPayees) public { payees = newPayees; }
		function payAll() public {
			for (uint i = 0; i < payees.length; i++) {
				payees[i].transfer(1 ether);
			}
		}
	}`
	check(t, src, DenialOfService, true)
}

// --- Front running ---------------------------------------------------------------

func TestFrontRunningPuzzleReward(t *testing.T) {
	src := `contract Puzzle {
		address winner;
		function solve(uint solution) public {
			require(solution == 42);
			winner = msg.sender;
		}
	}`
	check(t, src, FrontRunning, true)
}

func TestFrontRunningGuardedClaim(t *testing.T) {
	src := `contract Registry {
		address owner;
		address beneficiary;
		function setBeneficiary() public {
			require(msg.sender == owner);
			beneficiary = msg.sender;
		}
	}`
	check(t, src, FrontRunning, false)
}

// --- Short addresses ---------------------------------------------------------------

func TestShortAddressTransfer(t *testing.T) {
	src := `contract Token {
		mapping(address => uint) balances;
		function sendCoin(address to, uint amount) public {
			balances[to] += amount;
		}
	}`
	check(t, src, ShortAddresses, true)
}

func TestShortAddressMitigated(t *testing.T) {
	src := `contract Token {
		mapping(address => uint) balances;
		function sendCoin(address to, uint amount) public {
			require(msg.data.length >= 68);
			balances[to] += amount;
		}
	}`
	check(t, src, ShortAddresses, false)
}

// --- Unknown unknowns -----------------------------------------------------------------

func TestStoragePointerOverwrite(t *testing.T) {
	src := `contract Wallet {
		address owner;
		struct Deposit { uint amount; address from; }
		function deposit() public payable {
			Deposit d;
			d.amount = msg.value;
			d.from = msg.sender;
		}
	}`
	check(t, src, UnknownUnknowns, true)
}

func TestMemoryStructSafe(t *testing.T) {
	src := `contract Wallet {
		struct Deposit { uint amount; address from; }
		function deposit() public payable {
			Deposit memory d;
			d.amount = msg.value;
		}
	}`
	check(t, src, UnknownUnknowns, false)
}

// --- infrastructure ---------------------------------------------------------------------

func TestOnlyCategoriesRestriction(t *testing.T) {
	a := NewAnalyzer().OnlyCategories(Reentrancy)
	rep, err := a.AnalyzeSource(reentrantSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		if f.Category != Reentrancy {
			t.Errorf("category leak: %v", f)
		}
	}
	if !rep.HasCategory(Reentrancy) {
		t.Error("restricted run lost the reentrancy finding")
	}
}

func TestLimitsProduceTruncationSignal(t *testing.T) {
	a := &Analyzer{Limits: query.Limits{MaxSteps: 5}}
	rep, err := a.AnalyzeSource(reentrantSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("tiny budget should set Truncated")
	}
}

func TestReportCategoriesAndString(t *testing.T) {
	rep, err := AnalyzeSource(reentrantSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Categories()) == 0 {
		t.Fatal("no categories")
	}
	if rep.Findings[0].String() == "" {
		t.Error("empty finding string")
	}
}

func TestBenignContractCleanAcrossAllRules(t *testing.T) {
	src := `contract Safe {
		address owner;
		mapping(address => uint) balances;
		constructor() { owner = msg.sender; }
		modifier onlyOwner() { require(msg.sender == owner); _; }
		function deposit() public payable {
			require(msg.value > 0);
			balances[msg.sender] += msg.value;
		}
		function ownerWithdraw(uint amount) public onlyOwner {
			require(amount <= address(this).balance);
			msg.sender.transfer(amount);
		}
	}`
	rep, err := AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// The deposit += is guarded by a require sharing data? msg.value bounds
	// are not checked, but no parameter feeds it, so arithmetic stays quiet.
	for _, f := range rep.Findings {
		switch f.Category {
		case Reentrancy, AccessControl, UncheckedCalls, BadRandomness:
			t.Errorf("benign contract flagged: %v", f)
		}
	}
}
